package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// faultHeadSegment arms a write fault over the whole current head
// segment, so the next log flush is guaranteed to hit it.
func faultHeadSegment(t *testing.T, fs *FS, d *disk.Disk, f disk.Fault) int64 {
	t.Helper()
	seg := fs.segs.head
	f.Kind = disk.FaultWriteError
	f.Addr = fs.segStart(seg)
	f.Blocks = fs.segBlocks
	if err := d.InjectFault(f); err != nil {
		t.Fatal(err)
	}
	return seg
}

// TestWriteTransientFaultRetried pins the first rung of the write-fault
// ladder: a transient fault that clears within the retry budget is
// absorbed by bounded retries alone — no relocation, no retirement, no
// error surfaced — and the retry counter records exactly the failed
// attempts.
func TestWriteTransientFaultRetried(t *testing.T) {
	fs, d := newTestFS(t, 2048, faultTestOptions())
	faultHeadSegment(t, fs, d, disk.Fault{Transient: 2})

	content := bytes.Repeat([]byte("retry-me"), layout.BlockSize/8)
	if err := fs.WriteFile("/t", content); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync over a transient write fault: %v", err)
	}

	m := fs.Metrics()
	// Attempt 1 fails (initial write), attempts 2 and 3 are retries; the
	// fault clears after its 2 failed attempts, so retry 2 succeeds.
	if n := m.Counter(obs.CtrMediaWriteRetries); n != 2 {
		t.Fatalf("CtrMediaWriteRetries = %d, want exactly 2", n)
	}
	if n := m.Counter(obs.CtrMediaWriteErrors); n != 0 {
		t.Fatalf("CtrMediaWriteErrors = %d, want 0 (retries absorbed the fault)", n)
	}
	if n := m.Counter(obs.CtrMediaWriteRelocations); n != 0 {
		t.Fatalf("CtrMediaWriteRelocations = %d, want 0", n)
	}
	if n := m.Counter(obs.CtrSegsRetired); n != 0 {
		t.Fatalf("CtrSegsRetired = %d, want 0", n)
	}
	if fs.Degraded() {
		t.Fatalf("degraded by a transient write fault: %s", fs.DegradedReason())
	}
	got, err := fs.ReadFile("/t")
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("read back after transient fault: %v", err)
	}
	mustCheck(t, fs)
}

// TestWriteFaultRelocatesAndQuarantines pins the relocate rung: a
// permanent write fault on the head segment makes the flush abandon the
// segment, quarantine it, and replay the batch into a fresh segment —
// the caller never sees the fault, the data is intact across a remount,
// and the quarantine persists.
func TestWriteFaultRelocatesAndQuarantines(t *testing.T) {
	fs, d := newTestFS(t, 2048, faultTestOptions())
	bad := faultHeadSegment(t, fs, d, disk.Fault{})

	content := bytes.Repeat([]byte("relocate"), 2*layout.BlockSize/8)
	if err := fs.WriteFile("/r", content); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync over a permanent write fault: %v", err)
	}

	if fs.Degraded() {
		t.Fatalf("degraded with clean segments still available: %s", fs.DegradedReason())
	}
	if fs.segs.head == bad {
		t.Fatal("log head still points at the poisoned segment")
	}
	if !fs.segs.isQuarantined(bad) {
		t.Fatalf("segment %d not quarantined after relocation", bad)
	}
	m := fs.Metrics()
	// One device write exhausts its retry budget (MediaWriteRetries
	// defaults to 3), then the batch relocates exactly once.
	if n := m.Counter(obs.CtrMediaWriteRetries); n != 3 {
		t.Fatalf("CtrMediaWriteRetries = %d, want exactly 3", n)
	}
	if n := m.Counter(obs.CtrMediaWriteErrors); n != 1 {
		t.Fatalf("CtrMediaWriteErrors = %d, want exactly 1", n)
	}
	if n := m.Counter(obs.CtrMediaWriteRelocations); n != 1 {
		t.Fatalf("CtrMediaWriteRelocations = %d, want exactly 1", n)
	}
	if n := m.Counter(obs.CtrSegsRetired); n != 1 {
		t.Fatalf("CtrSegsRetired = %d, want exactly 1", n)
	}
	got, err := fs.ReadFile("/r")
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("read back after relocation: %v", err)
	}
	mustCheck(t, fs)

	// The retirement rides the checkpoint region across a remount, and
	// the relocated data is byte-identical from the cold caches.
	fs = remount(t, fs, d)
	found := false
	for _, s := range fs.QuarantinedSegments() {
		if s == bad {
			found = true
		}
	}
	if !found {
		t.Fatalf("quarantine of segment %d did not survive remount: %v", bad, fs.QuarantinedSegments())
	}
	if fs.segs.is(bad, segFree) {
		t.Fatalf("retired segment %d is back on the free list", bad)
	}
	got, err = fs.ReadFile("/r")
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("read back after remount: %v", err)
	}
	mustCheck(t, fs)
}

// TestWriteFaultAcknowledgeAfterCheckpoint pins the log-hole invariant:
// a flush that relocated must not acknowledge durability before a
// checkpoint commits the post-relocation head, because roll-forward
// cannot thread past the hole in the poisoned segment. Observable
// effect: the relocating Sync leaves a fresh checkpoint behind.
func TestWriteFaultAcknowledgeAfterCheckpoint(t *testing.T) {
	fs, d := newTestFS(t, 2048, faultTestOptions())
	before := fs.Metrics().Counter(obs.CtrCheckpoints)
	faultHeadSegment(t, fs, d, disk.Fault{})

	if err := fs.WriteFile("/h", []byte("hole")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if fs.relocatedSinceCp {
		t.Fatal("relocatedSinceCp still set after a successful sync")
	}
	if after := fs.Metrics().Counter(obs.CtrCheckpoints); after != before+1 {
		t.Fatalf("checkpoints went %d -> %d; a relocating flush must checkpoint before acknowledging", before, after)
	}
	// Crash right now: recovery must come up with the relocated write.
	d2 := disk.FromSnapshot(d.Snapshot())
	fs2, err := Mount(d2, faultTestOptions())
	if err != nil {
		t.Fatalf("mount after post-relocation crash: %v", err)
	}
	got, err := fs2.ReadFile("/h")
	if err != nil || string(got) != "hole" {
		t.Fatalf("relocated write lost across crash: %q, %v", got, err)
	}
	mustCheck(t, fs2)
}

// TestCheckpointRegionWriteFaultFallsBack pins the checkpoint arm of the
// ladder: a region whose media refuses the write is retired for the
// mount, the checkpoint lands in the alternate region, and only losing
// both regions degrades the file system — with a typed error.
func TestCheckpointRegionWriteFaultFallsBack(t *testing.T) {
	fs, d := newTestFS(t, 2048, faultTestOptions())
	if err := fs.WriteFile("/c", []byte("checkpointed")); err != nil {
		t.Fatal(err)
	}
	target := fs.cpWhich
	if err := d.InjectFault(disk.Fault{
		Kind: disk.FaultWriteError, Addr: fs.sb.CheckpointAddr[target], Blocks: int64(fs.sb.CheckpointBlocks),
	}); err != nil {
		t.Fatal(err)
	}

	if err := fs.Checkpoint(); err != nil {
		t.Fatalf("checkpoint with one bad region: %v", err)
	}
	if fs.Degraded() {
		t.Fatalf("degraded with a healthy alternate region: %s", fs.DegradedReason())
	}
	if !fs.cpBad[target] {
		t.Fatalf("region %d not retired after its media refused the write", target)
	}
	if n := fs.Metrics().Counter(obs.CtrMediaWriteRelocations); n != 1 {
		t.Fatalf("CtrMediaWriteRelocations = %d, want 1 (the region fallback)", n)
	}
	// With one region retired there is no alternation left: the survivor
	// takes every later checkpoint.
	if err := fs.Checkpoint(); err != nil {
		t.Fatalf("checkpoint on the surviving region: %v", err)
	}
	if fs.cpBad[1-target] {
		t.Fatal("surviving region marked bad without a fault")
	}

	// Losing the survivor too is the end of the ladder: typed error,
	// degraded, no panic.
	if err := d.InjectFault(disk.Fault{
		Kind: disk.FaultWriteError, Addr: fs.sb.CheckpointAddr[1-target], Blocks: int64(fs.sb.CheckpointBlocks),
	}); err != nil {
		t.Fatal(err)
	}
	err := fs.Checkpoint()
	if !errors.Is(err, ErrMediaWrite) {
		t.Fatalf("checkpoint with both regions bad err = %v, want ErrMediaWrite", err)
	}
	if !fs.Degraded() {
		t.Fatal("both checkpoint regions lost but not degraded")
	}
	// The last checkpoint that landed stays valid: data is still there.
	if got, err := fs.ReadFile("/c"); err != nil || string(got) != "checkpointed" {
		t.Fatalf("read on degraded fs = %q, %v", got, err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatalf("unmount of degraded fs: %v", err)
	}
}

// TestWriteFaultExhaustionDegrades pins the last rung: when every
// segment's media refuses writes, relocation runs out of clean segments
// and the file system degrades with a typed error instead of looping or
// panicking.
func TestWriteFaultExhaustionDegrades(t *testing.T) {
	fs, d := newTestFS(t, 2048, faultTestOptions())
	if err := d.InjectFault(disk.Fault{
		Kind:   disk.FaultWriteError,
		Addr:   fs.sb.SegmentBase,
		Blocks: int64(fs.sb.NumSegments) * fs.segBlocks,
	}); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/doomed", []byte("x")); err != nil {
		if !errors.Is(err, ErrMediaWrite) && !errors.Is(err, ErrDegraded) {
			t.Fatalf("WriteFile err = %v, want ErrMediaWrite or ErrDegraded", err)
		}
	} else if err := fs.Sync(); !errors.Is(err, ErrMediaWrite) && !errors.Is(err, ErrDegraded) {
		t.Fatalf("Sync err = %v, want ErrMediaWrite or ErrDegraded", err)
	}
	if !fs.Degraded() {
		t.Fatal("whole-disk write failure did not degrade")
	}
	if err := fs.Unmount(); err != nil {
		t.Fatalf("unmount of degraded fs: %v", err)
	}
}

// checkpointRegions reads the superblock off an unmounted disk and
// returns the two checkpoint region extents.
func checkpointRegions(t *testing.T, d *disk.Disk) ([2]int64, int64) {
	t.Helper()
	sbBuf, err := d.ReadBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := layout.DecodeSuperblock(sbBuf)
	if err != nil {
		t.Fatal(err)
	}
	return sb.CheckpointAddr, int64(sb.CheckpointBlocks)
}

// TestMountBothCheckpointRegionsUnreadable pins the mount contract when
// the media has destroyed both checkpoint regions: a typed
// ErrNoCheckpoint, no panic, and no half-built FS handed back.
func TestMountBothCheckpointRegionsUnreadable(t *testing.T) {
	fs, d := newTestFS(t, 2048, testOptions())
	if err := fs.WriteFile("/gone", []byte("unreachable")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	addrs, blocks := checkpointRegions(t, d)
	for i := 0; i < 2; i++ {
		if err := d.InjectFault(disk.Fault{Kind: disk.FaultReadError, Addr: addrs[i], Blocks: blocks}); err != nil {
			t.Fatal(err)
		}
	}
	fs2, err := Mount(d, faultTestOptions())
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("mount err = %v, want ErrNoCheckpoint", err)
	}
	if fs2 != nil {
		t.Fatal("mount returned a non-nil FS alongside an error")
	}
}

// TestMountOneCheckpointRegionUnreadable pins the survivor path: with
// either single region unreadable, the mount comes up from the other
// one (plus roll-forward when the survivor is the older region) and the
// data is intact.
func TestMountOneCheckpointRegionUnreadable(t *testing.T) {
	content := bytes.Repeat([]byte("survive!"), layout.BlockSize/8)
	for region := 0; region < 2; region++ {
		t.Run([]string{"region0", "region1"}[region], func(t *testing.T) {
			fs, d := newTestFS(t, 2048, testOptions())
			if err := fs.WriteFile("/keep", content); err != nil {
				t.Fatal(err)
			}
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := fs.Unmount(); err != nil {
				t.Fatal(err)
			}
			addrs, blocks := checkpointRegions(t, d)
			if err := d.InjectFault(disk.Fault{Kind: disk.FaultReadError, Addr: addrs[region], Blocks: blocks}); err != nil {
				t.Fatal(err)
			}
			fs2, err := Mount(d, faultTestOptions())
			if err != nil {
				t.Fatalf("mount with region %d unreadable: %v", region, err)
			}
			got, err := fs2.ReadFile("/keep")
			if err != nil || !bytes.Equal(got, content) {
				t.Fatalf("read from survivor mount: %v", err)
			}
			mustCheck(t, fs2)
		})
	}
}
