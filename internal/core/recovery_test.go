package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// content produces deterministic file contents for (name, version).
func content(name string, version, blocks int) []byte {
	out := make([]byte, blocks*layout.BlockSize)
	seed := uint32(version * 2654435761)
	for _, c := range name {
		seed = seed*31 + uint32(c)
	}
	for i := range out {
		seed = seed*1664525 + 1013904223
		out[i] = byte(seed >> 24)
	}
	return out
}

func TestMountNoRollForwardDiscardsPostCheckpoint(t *testing.T) {
	fs, d := newTestFS(t, 4096, testOptions())
	if err := fs.WriteFile("/durable", []byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/volatile", []byte("not committed")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	d.Reopen()

	opts := testOptions()
	opts.NoRollForward = true
	fs2, err := Mount(d, opts)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	got, err := fs2.ReadFile("/durable")
	if err != nil || string(got) != "committed" {
		t.Fatalf("durable file: %q, %v", got, err)
	}
	if _, err := fs2.Stat("/volatile"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-checkpoint file survived NoRollForward mount: %v", err)
	}
	mustCheck(t, fs2)
}

func TestRollForwardRecoversSyncedData(t *testing.T) {
	fs, d := newTestFS(t, 4096, testOptions())
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("/post%02d", i)
		data := content(name, 1, 2)
		if err := fs.WriteFile(name, data); err != nil {
			t.Fatal(err)
		}
		want[name] = data
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	d.Reopen()

	fs2, err := Mount(d, faultTestOptions())
	if err != nil {
		t.Fatalf("Mount with roll-forward: %v", err)
	}
	// On a disk never written before, the log thread and every touched
	// segment's chain end where the written space does: at a block that
	// does not decode (or at a full segment). Each finished walk is
	// counted once by reason.
	m := fs2.Metrics()
	for e := layout.WalkEnd(0); e < layout.NumWalkEnds; e++ {
		n := m.Counter(obs.CtrLogWalkEndPrefix + e.String())
		switch e {
		case layout.EndDecode:
			if n < 1 {
				t.Errorf("log.walk.end.%s = %d, want at least the thread walk", e, n)
			}
		case layout.EndSegmentFull:
		default:
			if n != 0 {
				t.Errorf("log.walk.end.%s = %d on a fault-free first-life log, want 0", e, n)
			}
		}
	}
	for name, data := range want {
		got, err := fs2.ReadFile(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: content mismatch after roll-forward", name)
		}
	}
	mustCheck(t, fs2)
}

func TestRollForwardRecoversDeletes(t *testing.T) {
	fs, d := newTestFS(t, 4096, testOptions())
	if err := fs.WriteFile("/doomed", content("/doomed", 1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/keeper", []byte("stay")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/doomed"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	d.Reopen()

	fs2, err := Mount(d, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Stat("/doomed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted file resurrected: %v", err)
	}
	if got, err := fs2.ReadFile("/keeper"); err != nil || string(got) != "stay" {
		t.Fatalf("keeper: %q, %v", got, err)
	}
	mustCheck(t, fs2)
}

func TestRollForwardRename(t *testing.T) {
	fs, d := newTestFS(t, 4096, testOptions())
	if err := fs.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/a/f", []byte("moving")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/a/f", "/b/g"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	d.Reopen()

	fs2, err := Mount(d, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Stat("/a/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rename source still present: %v", err)
	}
	got, err := fs2.ReadFile("/b/g")
	if err != nil || string(got) != "moving" {
		t.Fatalf("rename target: %q, %v", got, err)
	}
	mustCheck(t, fs2)
}

func TestTornCheckpointFallsBack(t *testing.T) {
	fs, d := newTestFS(t, 4096, testOptions())
	if err := fs.WriteFile("/f", []byte("epoch 1")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/f", []byte("epoch 2")); err != nil {
		t.Fatal(err)
	}
	// Crash in the middle of the next checkpoint's region write: allow
	// the log flush through but cut power during the fixed-region write.
	// Find the region write by trial: flush first, then arm.
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint will write the metadata blocks plus the region.
	// Allow everything except the region's last block.
	pre := d.Stats().BlocksWritten
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cpWrites := d.Stats().BlocksWritten - pre

	// Redo the scenario on a fresh device with the fault armed.
	d2 := disk.MustNew(disk.DefaultGeometry(4096))
	fs2, err := Format(d2, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs2.WriteFile("/f", []byte("epoch 1")); err != nil {
		t.Fatal(err)
	}
	if err := fs2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := fs2.WriteFile("/f", []byte("epoch 2")); err != nil {
		t.Fatal(err)
	}
	if err := fs2.Sync(); err != nil {
		t.Fatal(err)
	}
	d2.FailAfterWrites(cpWrites - 1) // tear the final checkpoint block
	if err := fs2.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded despite torn region write")
	}
	d2.Reopen()

	opts := testOptions()
	opts.NoRollForward = true
	fs3, err := Mount(d2, opts)
	if err != nil {
		t.Fatalf("Mount after torn checkpoint: %v", err)
	}
	got, err := fs3.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "epoch 1" {
		t.Fatalf("fell forward to torn state: %q", got)
	}
	// With roll-forward the post-checkpoint write is recovered.
	fs3.mounted = false
	d2.Reopen()
	fs4, err := Mount(d2, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err = fs4.ReadFile("/f")
	if err != nil || string(got) != "epoch 2" {
		t.Fatalf("roll-forward read: %q, %v", got, err)
	}
	mustCheck(t, fs4)
}

func TestRecoveryAfterCleaning(t *testing.T) {
	fs, d := newTestFS(t, 2048, testOptions())
	payload := func(i, round int) []byte {
		return content(fmt.Sprintf("/f%03d", i), round, 1)
	}
	last := map[int]int{}
	for round := 1; round <= 16; round++ {
		for i := 0; i < 150; i++ {
			if err := fs.WriteFile(fmt.Sprintf("/f%03d", i), payload(i, round)); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			last[i] = round
		}
	}
	if fs.Stats().SegmentsCleaned == 0 {
		t.Fatal("cleaning never happened")
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	d.Reopen()
	fs2, err := Mount(d, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, round := range last {
		got, err := fs2.ReadFile(fmt.Sprintf("/f%03d", i))
		if err != nil {
			t.Fatalf("file %d: %v", i, err)
		}
		if !bytes.Equal(got, payload(i, round)) {
			t.Fatalf("file %d content mismatch after cleaning+crash", i)
		}
	}
	mustMatchWalk(t, fs2)
}

// TestCrashPointSweep runs a fixed workload, crashing the device after
// every k block writes, and checks that every crash point yields a
// mountable, structurally consistent file system whose recovered files
// all hold contents the workload actually wrote.
func TestCrashPointSweep(t *testing.T) {
	type histKey struct {
		name    string
		version int
	}
	workload := func(fs *FS, record func(name string, version int, blocks int)) {
		// Phase 1: a burst of small files, checkpointed.
		for i := 0; i < 12; i++ {
			name := fmt.Sprintf("/s%02d", i)
			record(name, 1, 1)
			if fs.WriteFile(name, content(name, 1, 1)) != nil {
				return
			}
		}
		if fs.Checkpoint() != nil {
			return
		}
		// Phase 2: overwrites, a directory, deletes, a rename.
		if fs.Mkdir("/d") != nil {
			return
		}
		for i := 0; i < 12; i += 2 {
			name := fmt.Sprintf("/s%02d", i)
			record(name, 2, 2)
			if fs.WriteFile(name, content(name, 2, 2)) != nil {
				return
			}
		}
		if fs.Remove("/s01") != nil {
			return
		}
		if fs.Rename("/s03", "/d/moved") != nil {
			return
		}
		record("/d/inner", 1, 3)
		if fs.WriteFile("/d/inner", content("/d/inner", 1, 3)) != nil {
			return
		}
		if fs.Sync() != nil {
			return
		}
		// Phase 3: more churn and a final checkpoint.
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("/t%02d", i)
			record(name, 1, 1)
			if fs.WriteFile(name, content(name, 1, 1)) != nil {
				return
			}
		}
		_ = fs.Checkpoint()
	}

	// Dry run to count total writes.
	dDry := disk.MustNew(disk.DefaultGeometry(4096))
	fsDry, err := Format(dDry, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	workload(fsDry, func(string, int, int) {})
	total := dDry.Stats().BlocksWritten

	step := total / 40
	if step < 1 {
		step = 1
	}
	for crashAt := int64(1); crashAt <= total; crashAt += step {
		crashAt := crashAt
		t.Run(fmt.Sprintf("crash@%d", crashAt), func(t *testing.T) {
			d := disk.MustNew(disk.DefaultGeometry(4096))
			fs, err := Format(d, testOptions())
			if err != nil {
				t.Fatal(err)
			}
			valid := map[histKey]bool{}
			record := func(name string, version, blocks int) {
				valid[histKey{name, version}] = true
			}
			d.FailAfterWrites(crashAt)
			workload(fs, record)
			d.Reopen()

			fs2, err := Mount(d, testOptions())
			if err != nil {
				t.Fatalf("Mount after crash at %d: %v", crashAt, err)
			}
			rep, err := fs2.Check()
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			for _, p := range rep.Problems {
				t.Errorf("crash at %d: %s", crashAt, p)
			}
			// Every recovered file must hold a content version the
			// workload actually wrote.
			var verify func(dir string)
			verify = func(dir string) {
				entries, err := fs2.ReadDir(dir)
				if err != nil {
					t.Fatalf("readdir %s: %v", dir, err)
				}
				for _, e := range entries {
					p := dir + e.Name
					info, err := fs2.Stat(p)
					if err != nil {
						t.Fatalf("stat %s: %v", p, err)
					}
					if info.IsDir {
						verify(p + "/")
						continue
					}
					got, err := fs2.ReadFile(p)
					if err != nil {
						t.Fatalf("read %s: %v", p, err)
					}
					name := p
					if p == "/d/moved" {
						name = "/s03" // renamed file keeps its contents
					}
					ok := false
					for v := 1; v <= 3; v++ {
						if valid[histKey{name, v}] && bytes.Equal(got, content(name, v, len(got)/layout.BlockSize+boolToInt(len(got)%layout.BlockSize > 0))) {
							ok = true
							break
						}
					}
					// Empty files are valid mid-create states.
					if len(got) == 0 {
						ok = true
					}
					if !ok {
						t.Errorf("crash at %d: %s holds unexpected content (%d bytes)", crashAt, p, len(got))
					}
				}
			}
			verify("/")
			// The phase-1 checkpoint makes the first 12 files durable at
			// every crash point after it completes. We can't know the
			// exact write count of the checkpoint here, so only assert
			// the stronger property for crash points in phase 3
			// (detected by /d existing).
			if _, err := fs2.Stat("/d"); err == nil {
				for i := 0; i < 12; i++ {
					name := fmt.Sprintf("/s%02d", i)
					if i == 1 || i == 3 {
						continue // deleted / renamed later
					}
					if _, err := fs2.Stat(name); err != nil {
						t.Errorf("crash at %d: checkpointed file %s missing: %v", crashAt, name, err)
					}
				}
			}
		})
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestDoubleCrashDuringRecovery(t *testing.T) {
	// Crash, then crash again during the recovery mount's own writes;
	// the second recovery must still succeed.
	fs, d := newTestFS(t, 4096, testOptions())
	if err := fs.WriteFile("/base", []byte("base")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/n%d", i), content("n", i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Remove("/n3"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	d.Reopen()

	// First recovery: cut power partway through its log writes.
	d.FailAfterWrites(3)
	if _, err := Mount(d, testOptions()); err == nil {
		// Recovery may legitimately succeed if it needed <= 3 writes
		// before the fault, but then nothing was torn; either way the
		// second mount below must work.
		t.Log("first recovery completed before the injected fault")
	}
	d.Reopen()

	fs3, err := Mount(d, testOptions())
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if got, err := fs3.ReadFile("/base"); err != nil || string(got) != "base" {
		t.Fatalf("base: %q, %v", got, err)
	}
	if _, err := fs3.Stat("/n3"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted file resurrected after double crash: %v", err)
	}
	mustCheck(t, fs3)
}

func TestMountFreshDeviceFails(t *testing.T) {
	d := disk.MustNew(disk.DefaultGeometry(1024))
	if _, err := Mount(d, testOptions()); err == nil {
		t.Fatal("mounted an unformatted device")
	}
}

func TestRecoveryPreservesInumAllocation(t *testing.T) {
	fs, d := newTestFS(t, 4096, testOptions())
	if err := fs.WriteFile("/a", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/b", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	d.Reopen()
	fs2, err := Mount(d, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// A new file must not collide with the recovered /b's inum.
	if err := fs2.WriteFile("/c", []byte("c")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/a", "/b", "/c"} {
		if _, err := fs2.Stat(p); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	ia, _ := fs2.Stat("/a")
	ib, _ := fs2.Stat("/b")
	ic, _ := fs2.Stat("/c")
	if ia.Inum == ib.Inum || ib.Inum == ic.Inum || ia.Inum == ic.Inum {
		t.Fatalf("inum collision: %d %d %d", ia.Inum, ib.Inum, ic.Inum)
	}
	mustCheck(t, fs2)
}

// TestCheckpointUsageBlocksStraddle pins the usage table against a
// checkpoint whose usage blocks would be cut across two partial writes.
// Each usage block is encoded at its own batch's phase 2, so block 0 cut
// off from block 1 used to be persisted before block 1's placement
// adjusted the live counts it holds: the checkpointed table disagreed
// with the log by one block. The device has two usage blocks, and a
// checkpoint is taken with the head at every offset of a segment.
func TestCheckpointUsageBlocksStraddle(t *testing.T) {
	opts := testOptions()
	opts.SegmentBlocks = 16
	opts.NoGroupCommit = true
	nsegs := int64(layout.SegUsagePerBlock + 8)
	fs, d := newTestFS(t, nsegs*int64(opts.SegmentBlocks)+64, opts)
	if fs.usage.numBlocks() != 2 {
		t.Fatalf("device has %d usage blocks, the test needs 2", fs.usage.numBlocks())
	}
	rng := rand.New(rand.NewSource(1))
	for want := int64(2); want <= fs.segBlocks; want++ {
		// Small syncs of random size move the head a few blocks at a
		// time until it stands at the wanted offset.
		for i := 0; fs.segs.headOff != want; i++ {
			if i == 40*int(fs.segBlocks) {
				t.Fatalf("head never reached offset %d", want)
			}
			if err := fs.WriteFile("/f", content("f", i, 1+rng.Intn(4))); err != nil {
				t.Fatal(err)
			}
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		m, err := Mount(disk.FromSnapshot(d.Snapshot()), opts)
		if err != nil {
			t.Fatalf("head offset %d: mount: %v", want, err)
		}
		rep, err := m.Check()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rep.Problems {
			t.Errorf("checkpoint at head offset %d: %s", want, p)
		}
	}
}
