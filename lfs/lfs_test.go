package lfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/lfs"
)

// The facade is exercised end to end exactly the way the package
// documentation shows.
func TestPublicAPIRoundTrip(t *testing.T) {
	d := lfs.NewDisk(4096)
	fs, err := lfs.Format(d, lfs.Options{SegmentBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/docs"); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("public api "), 1000)
	if err := fs.WriteFile("/docs/readme", want); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/docs/readme")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back failed: %v", err)
	}
	info, err := fs.Stat("/docs/readme")
	if err != nil || info.Size != int64(len(want)) {
		t.Fatalf("stat: %+v, %v", info, err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}

	fs2, err := lfs.Mount(d, lfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err = fs2.ReadFile("/docs/readme")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("post-mount read failed: %v", err)
	}
	rep, err := fs2.Check()
	if err != nil || len(rep.Problems) != 0 {
		t.Fatalf("check: %v problems, err %v", rep.Problems, err)
	}
}

func TestPublicAPICrashRecovery(t *testing.T) {
	d := lfs.NewDisk(4096)
	fs, err := lfs.Format(d, lfs.Options{SegmentBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/survivor", []byte("made it")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	d.Reopen()
	fs2, err := lfs.Mount(d, lfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.ReadFile("/survivor")
	if err != nil || string(got) != "made it" {
		t.Fatalf("recovered read: %q, %v", got, err)
	}
}

func TestPublicErrors(t *testing.T) {
	d := lfs.NewDisk(2048)
	fs, err := lfs.Format(d, lfs.Options{SegmentBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/missing"); !errors.Is(err, lfs.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if err := fs.Create("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/a"); !errors.Is(err, lfs.ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
}

func TestPolicyNames(t *testing.T) {
	if lfs.PolicyCostBenefit.String() != "cost-benefit" || lfs.PolicyGreedy.String() != "greedy" {
		t.Fatal("policy re-exports broken")
	}
}

func TestCleanReadModeNames(t *testing.T) {
	if lfs.CleanReadPlanned.String() != "planned" || lfs.CleanReadWhole.String() != "whole" ||
		lfs.CleanReadLive.String() != "live" {
		t.Fatal("clean-read mode re-exports broken")
	}
}

// TestPublicConcurrentCleaning drives cleaning through the facade with a
// concurrent reader: a churning writer cleans in its epilogues while the
// reader polls a file the cleaner moves, cleaning passes are observed
// through Stats, reader concurrency through the tracer, and a clean
// shutdown plus remount at the end.
func TestPublicConcurrentCleaning(t *testing.T) {
	tr := lfs.NewTracer(nil)
	opts := lfs.Options{
		SegmentBlocks:  32,
		MaxInodes:      2048,
		CleanLowWater:  8,
		CleanHighWater: 16,
		CleanBatch:     4,
		Tracer:         tr,
	}
	d := lfs.NewDisk(2048)
	fs, err := lfs.Format(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("bg"), 8192)
	// The file the reader polls must exist before the reader starts.
	if err := fs.WriteFile("/churn00", payload); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := fs.ReadFile("/churn00"); err != nil {
				done <- err
				return
			}
		}
	}()
	for round := 0; round < 40; round++ {
		for i := 0; i < 32; i++ {
			if err := fs.WriteFile(fmt.Sprintf("/churn%02d", i), payload); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	close(done)
	if err := <-done; err != nil {
		t.Fatalf("concurrent reader: %v", err)
	}
	if fs.Stats().CleaningPasses == 0 {
		t.Error("churn never reached the cleaner")
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs2, err := lfs.Mount(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Unmount()
	got, err := fs2.ReadFile("/churn31")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("after remount: err=%v, match=%v", err, bytes.Equal(got, payload))
	}
}
