package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// zeroCheckpointRegions destroys one or both checkpoint regions in
// place, simulating catastrophic loss of the recovery anchors.
func zeroCheckpointRegions(t *testing.T, d *disk.Disk, which ...int) {
	t.Helper()
	sbBuf, err := d.Peek(0)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := layout.DecodeSuperblock(sbBuf)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, layout.BlockSize)
	for _, w := range which {
		base := sb.CheckpointAddr[w]
		for i := int64(0); i < int64(sb.CheckpointBlocks); i++ {
			if err := d.Poke(base+i, zero); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// salvageTestTree writes a small directory tree exercising nesting,
// hard links, renames and removals, and returns the expected walk.
func salvageTestTree(t *testing.T, fs *FS) map[string][]byte {
	t.Helper()
	steps := []func() error{
		func() error { return fs.Mkdir("/docs") },
		func() error { return fs.Mkdir("/docs/sub") },
		func() error { return fs.WriteFile("/hello.txt", []byte("hello, salvage")) },
		func() error { return fs.WriteFile("/docs/a.txt", bytes.Repeat([]byte("A"), 3*layout.BlockSize)) },
		func() error { return fs.WriteFile("/docs/sub/deep.txt", []byte("deep file")) },
		func() error { return fs.WriteFile("/junk", []byte("doomed")) },
		func() error { return fs.Remove("/junk") },
		func() error { return fs.WriteFile("/moved", []byte("was elsewhere")) },
		func() error { return fs.Rename("/moved", "/docs/moved") },
		func() error { return fs.Link("/hello.txt", "/docs/hello-link") },
		func() error { return fs.Sync() },
	}
	for i, s := range steps {
		if err := s(); err != nil {
			t.Fatalf("tree step %d: %v", i, err)
		}
	}
	return map[string][]byte{
		"/hello.txt":         []byte("hello, salvage"),
		"/docs/a.txt":        bytes.Repeat([]byte("A"), 3*layout.BlockSize),
		"/docs/sub/deep.txt": []byte("deep file"),
		"/docs/moved":        []byte("was elsewhere"),
		"/docs/hello-link":   []byte("hello, salvage"),
	}
}

func mustReadAll(t *testing.T, fs *FS, want map[string][]byte) {
	t.Helper()
	for path, content := range want {
		got, err := fs.ReadFile(path)
		if err != nil {
			t.Fatalf("ReadFile %s after salvage: %v", path, err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("ReadFile %s: %d bytes, want %d", path, len(got), len(content))
		}
	}
}

// TestSalvageBothCheckpointsZeroed is the headline scenario: both
// checkpoint regions destroyed, Mount fails with the typed
// ErrNoCheckpoint, and SalvageImage rebuilds the full tree from the log
// alone.
func TestSalvageBothCheckpointsZeroed(t *testing.T) {
	opts := faultTestOptions()
	fs, d := newTestFS(t, 4096, opts)
	want := salvageTestTree(t, fs)
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	zeroCheckpointRegions(t, d, 0, 1)

	if _, err := Mount(d, opts); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Mount after zeroing both regions: err = %v, want ErrNoCheckpoint", err)
	}

	walkEnds := func() (total, decode int64) {
		m := opts.Tracer.Metrics()
		for e := layout.WalkEnd(0); e < layout.NumWalkEnds; e++ {
			total += m.Counter(obs.CtrLogWalkEndPrefix + e.String())
		}
		return total, m.Counter(obs.CtrLogWalkEndPrefix + layout.EndDecode.String())
	}
	endsBefore, decodeBefore := walkEnds()
	fs2, rep, err := SalvageImage(d, opts)
	if err != nil {
		t.Fatalf("SalvageImage: %v", err)
	}
	if fs2.Degraded() {
		t.Fatalf("salvaged FS degraded: %s", fs2.DegradedReason())
	}
	// The scan walks every segment's chain once, and each finished walk
	// is counted by its end reason; the never-written segments that make
	// up most of this image end at a block that does not decode.
	ends, decode := walkEnds()
	if got := ends - endsBefore; got != int64(rep.SegmentsScanned) {
		t.Fatalf("log.walk.end.* grew by %d over a scan of %d segments", got, rep.SegmentsScanned)
	}
	if got := decode - decodeBefore; got < int64(rep.SegmentsScanned)/2 {
		t.Fatalf("log.walk.end.decode grew by %d over a scan of %d mostly empty segments", got, rep.SegmentsScanned)
	}
	if rep.InodesRecovered < len(want) {
		t.Fatalf("InodesRecovered = %d, want >= %d", rep.InodesRecovered, len(want))
	}
	if rep.RootRecreated {
		t.Fatal("root was recreated although it survived intact")
	}
	mustReadAll(t, fs2, want)
	mustCheck(t, fs2)

	// The salvaged FS is read-write.
	if err := fs2.WriteFile("/after-salvage", []byte("rw again")); err != nil {
		t.Fatalf("write after salvage: %v", err)
	}
	if fs2.Metrics().Counter(obs.CtrSalvageRuns) != 1 {
		t.Fatal("fs.salvage.runs not incremented")
	}

	// The repair is durable: a normal mount succeeds cleanly.
	if err := fs2.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs3, err := Mount(d, opts)
	if err != nil {
		t.Fatalf("Mount after salvage: %v", err)
	}
	if fs3.Degraded() {
		t.Fatalf("remount degraded: %s", fs3.DegradedReason())
	}
	mustReadAll(t, fs3, want)
	mustCheck(t, fs3)
	if err := fs3.Unmount(); err != nil {
		t.Fatal(err)
	}
}

// TestSalvageDegradedReturnsReadWrite pins the acceptance criterion: a
// mounted file system stuck in degraded read-only mode returns to
// read-write after (*FS).Salvage.
func TestSalvageDegradedReturnsReadWrite(t *testing.T) {
	opts := faultTestOptions()
	fs, d := newTestFS(t, 4096, opts)
	want := salvageTestTree(t, fs)
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}

	// Destroy an imap block so the next mount comes up degraded.
	imapAddr := metaBlockAddr(t, d, true)
	if err := d.Poke(imapAddr, make([]byte, layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(d, opts)
	if err != nil {
		t.Fatalf("Mount with destroyed imap block: %v", err)
	}
	if !fs2.Degraded() {
		t.Fatal("mount not degraded after imap destruction")
	}
	if fs2.DegradedReason() == "" {
		t.Fatal("degraded without a reason")
	}
	if err := fs2.WriteFile("/blocked", []byte("x")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("write while degraded: err = %v, want ErrDegraded", err)
	}

	rep, err := fs2.Salvage()
	if err != nil {
		t.Fatalf("Salvage: %v", err)
	}
	if fs2.Degraded() {
		t.Fatalf("still degraded after salvage: %s", fs2.DegradedReason())
	}
	if fs2.DegradedReason() != "" {
		t.Fatalf("DegradedReason = %q after salvage, want empty", fs2.DegradedReason())
	}
	if rep.InodesRecovered < len(want) {
		t.Fatalf("InodesRecovered = %d, want >= %d", rep.InodesRecovered, len(want))
	}
	mustReadAll(t, fs2, want)
	if err := fs2.WriteFile("/rw-again", []byte("back")); err != nil {
		t.Fatalf("write after salvage: %v", err)
	}
	if err := fs2.Sync(); err != nil {
		t.Fatalf("sync after salvage: %v", err)
	}
	mustCheck(t, fs2)

	fs3 := remount(t, fs2, d)
	if fs3.Degraded() {
		t.Fatalf("remount degraded: %s", fs3.DegradedReason())
	}
	mustReadAll(t, fs3, want)
	got, err := fs3.ReadFile("/rw-again")
	if err != nil || string(got) != "back" {
		t.Fatalf("post-salvage write not durable: %q, %v", got, err)
	}
	mustCheck(t, fs3)
	if err := fs3.Unmount(); err != nil {
		t.Fatal(err)
	}
}

// TestSalvageOrphanReconnection destroys the newest root directory
// content so the scavenger falls back to an older (empty) root version;
// the files that lost their directory entries must reappear under
// lost+found/ with their contents intact.
func TestSalvageOrphanReconnection(t *testing.T) {
	opts := faultTestOptions()
	fs, d := newTestFS(t, 4096, opts)
	if err := fs.WriteFile("/orphan-to-be", []byte("survivor data")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	_, rootData := dataBlockAddr(t, fs, "/", 0)
	inum, _ := dataBlockAddr(t, fs, "/orphan-to-be", 0)
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	// Destroy the root directory's data block (every copy of the newest
	// root content) and both checkpoints: the root falls back to its
	// empty format-time version, orphaning the file.
	if err := d.Poke(rootData, make([]byte, layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	zeroCheckpointRegions(t, d, 0, 1)

	fs2, rep, err := SalvageImage(d, opts)
	if err != nil {
		t.Fatalf("SalvageImage: %v", err)
	}
	if rep.Orphans == 0 {
		t.Fatal("expected at least one orphan reconnection")
	}
	path := fmt.Sprintf("/lost+found/ino%d", inum)
	got, err := fs2.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile %s: %v", path, err)
	}
	if string(got) != "survivor data" {
		t.Fatalf("orphan content = %q", got)
	}
	if fs2.Metrics().Counter(obs.CtrSalvageOrphans) == 0 {
		t.Fatal("fs.salvage.orphans not incremented")
	}
	mustCheck(t, fs2)
	fs3 := remount(t, fs2, d)
	if _, err := fs3.ReadFile(path); err != nil {
		t.Fatalf("orphan not durable: %v", err)
	}
	mustCheck(t, fs3)
	if err := fs3.Unmount(); err != nil {
		t.Fatal(err)
	}
}

// TestSalvagePreservesQuarantine covers the satellite requirement:
// known-bad segments stay withdrawn across a salvage, both in place and
// through SalvageImage reading the surviving checkpoint, so a repaired
// image never re-allocates them.
func TestSalvagePreservesQuarantine(t *testing.T) {
	opts := faultTestOptions()
	fs, d := newTestFS(t, 4096, opts)
	want := salvageTestTree(t, fs)

	// Corrupt one data block via an injected media fault; reading it
	// quarantines the segment.
	_, addr := dataBlockAddr(t, fs, "/docs/a.txt", 1)
	fs = remount(t, fs, d)
	if err := d.InjectFault(disk.Fault{Kind: disk.FaultCorrupt, Addr: addr, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/docs/a.txt"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read of corrupted block: %v", err)
	}
	badSeg := fs.segOf(addr)
	if qs := fs.QuarantinedSegments(); len(qs) != 1 || qs[0] != badSeg {
		t.Fatalf("QuarantinedSegments = %v, want [%d]", qs, badSeg)
	}

	// In-place salvage preserves the quarantine.
	if _, err := fs.Salvage(); err != nil {
		t.Fatalf("Salvage: %v", err)
	}
	if qs := fs.QuarantinedSegments(); len(qs) != 1 || qs[0] != badSeg {
		t.Fatalf("quarantine lost across Salvage: %v, want [%d]", qs, badSeg)
	}
	fs.mu.Lock()
	if fs.segs.head == badSeg || fs.segs.next == badSeg {
		t.Fatalf("salvage allocated quarantined segment %d as log head", badSeg)
	}
	if fs.segs.is(badSeg, segFree) {
		t.Fatalf("quarantined segment %d on the free list after salvage", badSeg)
	}
	fs.mu.Unlock()
	delete(want, "/docs/a.txt") // its segment is quarantined; content damaged

	// SalvageImage re-learns the quarantine from the surviving
	// checkpoint the salvage just wrote.
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs2, _, err := SalvageImage(d, opts)
	if err != nil {
		t.Fatalf("SalvageImage: %v", err)
	}
	if qs := fs2.QuarantinedSegments(); len(qs) != 1 || qs[0] != badSeg {
		t.Fatalf("quarantine lost across SalvageImage: %v, want [%d]", qs, badSeg)
	}
	mustReadAll(t, fs2, want)
	if err := fs2.Unmount(); err != nil {
		t.Fatal(err)
	}
}

// TestSalvageImapBlocksDestroyed destroys every imap block referenced
// by the final checkpoint: the mount degrades, and in-place Salvage
// recovers the full tree (the imap is entirely reconstructible from the
// log).
func TestSalvageImapBlocksDestroyed(t *testing.T) {
	opts := faultTestOptions()
	fs, d := newTestFS(t, 4096, opts)
	want := salvageTestTree(t, fs)
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	sbBuf, _ := d.Peek(0)
	sb, err := layout.DecodeSuperblock(sbBuf)
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := readBestCheckpoint(d, sb, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range cp.ImapAddrs {
		if a != layout.NilAddr {
			if err := d.Poke(a, make([]byte, layout.BlockSize)); err != nil {
				t.Fatal(err)
			}
		}
	}
	fs2, err := Mount(d, opts)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	if !fs2.Degraded() {
		t.Fatal("mount not degraded with all imap blocks destroyed")
	}
	if _, err := fs2.Salvage(); err != nil {
		t.Fatalf("Salvage: %v", err)
	}
	if fs2.Degraded() {
		t.Fatalf("still degraded: %s", fs2.DegradedReason())
	}
	mustReadAll(t, fs2, want)
	mustCheck(t, fs2)
	fs3 := remount(t, fs2, d)
	mustReadAll(t, fs3, want)
	mustCheck(t, fs3)
	if err := fs3.Unmount(); err != nil {
		t.Fatal(err)
	}
}

// TestDegradedReasonPublishedBeforeFlag pins the satellite race fix
// under -race: any goroutine that observes Degraded()==true must also
// observe a non-empty DegradedReason(), because the reason is published
// before the flag flips.
func TestDegradedReasonPublishedBeforeFlag(t *testing.T) {
	fs, _ := newTestFS(t, 2048, testOptions())
	defer fs.Unmount()

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			fs.degrade("race-test", fmt.Sprintf("cause from goroutine %d", g))
		}(g)
	}
	wg.Add(1)
	var failure string
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 100000; i++ {
			if fs.Degraded() {
				if fs.DegradedReason() == "" {
					failure = "Degraded()==true with empty DegradedReason()"
				}
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	if failure != "" {
		t.Fatal(failure)
	}
	if !fs.Degraded() || fs.DegradedReason() == "" {
		t.Fatal("degrade did not latch a reason")
	}
	// First reason wins; later causes must not overwrite it.
	first := fs.DegradedReason()
	fs.degrade("race-test", "late overwrite attempt")
	if fs.DegradedReason() != first {
		t.Fatalf("DegradedReason overwritten: %q -> %q", first, fs.DegradedReason())
	}
	fs.undegrade()
}
