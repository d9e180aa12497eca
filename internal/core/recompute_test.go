package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// Mount recomputes segment usage from the log tail it kept in memory
// (DESIGN.md §4 "The tail is read once"). Until PR 20 it walked every touched
// segment's summary chain on the device instead; that walk stays here as the
// oracle the new counts are compared with.

// walkedLiveBytes is that walk: seg's summary chain from offset 0, every
// block it describes liveness-checked against the current metadata.
func walkedLiveBytes(t *testing.T, fs *FS, seg int64) int64 {
	t.Helper()
	s := layout.NewWalkScratch()
	var liveBlocks int64
	w := fs.walkSegment(seg, s)
	for w.Next() {
		for i, e := range s.Entries {
			live, err := fs.blockLive(e, w.DataAddr()+int64(i))
			if err != nil {
				t.Fatalf("segment %d: %v", seg, err)
			}
			if live {
				liveBlocks++
			}
		}
	}
	if end, err := w.End(); end == layout.EndMedia {
		t.Fatalf("segment %d: summary at %d unreadable: %v", seg, fs.segStart(seg)+w.Off(), err)
	}
	return liveBlocks * layout.BlockSize
}

// mustMatchWalk compares the usage table of a just-mounted file system with
// the walk, segment by segment, and runs Check.
func mustMatchWalk(t *testing.T, fs *FS) {
	t.Helper()
	func() {
		fs.mu.Lock()
		defer fs.mu.Unlock()
		for seg := int64(0); seg < fs.nsegs; seg++ {
			if got, want := int64(fs.usage.get(seg).LiveBytes), walkedLiveBytes(t, fs, seg); got != want {
				t.Errorf("segment %d: usage table says %d live bytes, a walk of its summary chain %d", seg, got, want)
			}
		}
	}()
	mustCheck(t, fs)
}

// TestRecomputedUsageCheckpointAtEveryOffset takes a checkpoint with the log
// head at every offset of a segment, adds synced writes after it, cuts the
// power and mounts: whether the checkpoint sits in the middle of its segment
// (the part before it keeps the checkpoint's count, the rest is recounted) or
// at its end (the tail starts a segment of its own), the recovered usage
// table is what a walk of the segments gives.
func TestRecomputedUsageCheckpointAtEveryOffset(t *testing.T) {
	opts := testOptions()
	opts.SegmentBlocks = 16
	fs, d := newTestFS(t, 4096, opts)
	rng := rand.New(rand.NewSource(1))
	var mid, full int
	for want := int64(2); want <= fs.segBlocks; want++ {
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
		if off := fs.segs.headOff; off > fs.segBlocks-2 {
			full++
		} else if off > 0 {
			mid++
		}
		// The tail: an overwrite that kills blocks written before the
		// checkpoint, new files, a removal — over more than one segment.
		for i := 0; i < 3; i++ {
			if err := fs.WriteFile("/f", content("f", 1000+i, 2)); err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile(fmt.Sprintf("/g%d", i), content("g", i, 3)); err != nil {
				t.Fatal(err)
			}
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Remove("/g1"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		m, err := Mount(disk.FromSnapshot(d.Snapshot()), opts)
		if err != nil {
			t.Fatalf("checkpoint at head offset %d: mount: %v", want, err)
		}
		mustMatchWalk(t, m)
		for i := 0; i < 3; i++ {
			if err := fs.Remove(fmt.Sprintf("/g%d", i)); err != nil && i != 1 {
				t.Fatal(err)
			}
		}
	}
	if mid == 0 || full == 0 {
		t.Fatalf("%d checkpoints sat mid-segment and %d at a segment's end; the test needs both", mid, full)
	}
}

// TestRecomputedUsageCountsRepairWrites crashes in the middle of a flush so
// that the directory-operation log of 40 removals reaches the disk and the
// inodes do not (the directory blocks written before the log are reachable
// only through them). Recovery redoes the removals, and with a write buffer
// of 8 blocks its repair pass fills the buffer and flushes several times
// before usage is recomputed — into a segment whose count recovery has
// suspended. Those partial writes are in no tail read from the device: the
// log writer must add them (writeBatch), or the segment comes out
// under-counted.
func TestRecomputedUsageCountsRepairWrites(t *testing.T) {
	const ndirs = 40
	opts := testOptions()
	opts.WriteBufferBlocks = 256
	// The flush stages the directories, then the directory log, then the
	// inodes. A power cut inside a partial write tears it, and recovery
	// drops a torn final write whole, so the log must end a partial write:
	// a synced padding file in the tail moves the head until the blocks in
	// front of the inodes fill the head segment and whole segments after
	// it. The cut lets exactly those writes through, summaries included.
	var (
		fs  *FS
		d   *disk.Disk
		cut int64
	)
	for pad := 0; cut == 0; pad++ {
		if pad == 2*int(opts.SegmentBlocks) {
			t.Fatal("no padding puts the end of the directory log at a segment's end")
		}
		fs, d = newTestFS(t, 4096, opts)
		for i := 0; i < ndirs; i++ {
			dir := fmt.Sprintf("/d%02d", i)
			if err := fs.Mkdir(dir); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"/keep", "/doomed"} {
				if err := fs.WriteFile(dir+name, content(dir+name, 1, 1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := fs.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if pad > 0 {
			if err := fs.WriteFile("/pad", content("/pad", 0, pad)); err != nil {
				t.Fatal(err)
			}
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < ndirs; i++ {
			if err := fs.Remove(fmt.Sprintf("/d%02d/doomed", i)); err != nil {
				t.Fatal(err)
			}
		}
		inodeBlocks := (fs.dirtyInodes.n + layout.InodesPerBlock - 1) / layout.InodesPerBlock
		before := int64(fs.stagedBlocks() - inodeBlocks)
		room := fs.segBlocks - fs.segs.headOff
		if k := before - segRoom(room); room >= 2 && k >= 0 && k%segRoom(fs.segBlocks) == 0 {
			cut = room + k/segRoom(fs.segBlocks)*fs.segBlocks
		}
	}
	d.FailAfterWrites(cut)
	if err := fs.Sync(); err == nil {
		t.Fatal("Sync survived the power cut")
	}
	d.Reopen()

	ring := obs.NewRingSink(1 << 14)
	opts.WriteBufferBlocks = 8
	opts.Tracer = obs.New(ring)
	fs2, err := Mount(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	var repairWrites int
	for _, e := range ring.Events() {
		if e.Kind == obs.KindLogWrite && e.Log.Recovery {
			repairWrites++
		}
	}
	if repairWrites < ndirs/8 {
		t.Fatalf("recovery made %d partial writes; the repair pass did not overflow the write buffer", repairWrites)
	}
	for i := 0; i < ndirs; i++ {
		dir := fmt.Sprintf("/d%02d", i)
		if _, err := fs2.Stat(dir + "/doomed"); err == nil {
			t.Errorf("%s/doomed survived a removal whose log record reached the disk", dir)
		}
		if _, err := fs2.Stat(dir + "/keep"); err != nil {
			t.Errorf("%s/keep: %v", dir, err)
		}
	}
	mustMatchWalk(t, fs2)
}
