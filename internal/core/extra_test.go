package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/layout"
)

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.SegmentBlocks != 128 || o.MaxInodes != 65536 {
		t.Fatalf("defaults: %+v", o)
	}
	if o.CleanLowWater <= reserveSegments {
		t.Fatalf("low water %d must exceed the reserve %d", o.CleanLowWater, reserveSegments)
	}
	if o.CleanHighWater <= o.CleanLowWater {
		t.Fatalf("high water %d must exceed low water %d", o.CleanHighWater, o.CleanLowWater)
	}
	// The cleaner is sized by need: cleaning starts at the safety floor,
	// not above it, and a cycle is one pass above that.
	if floor := reserveSegments + 2 + 4; o.CleanLowWater != floor || o.CleanHighWater != floor+14 || o.CleanBatch != 24 {
		t.Fatalf("cleaner sizing %d/%d/%d, want %d/%d/24", o.CleanLowWater, o.CleanHighWater, o.CleanBatch, floor, floor+14)
	}
	// A large write buffer forces the low-water mark up, and the high-water
	// mark follows it; an explicit mark under the floor is raised to it.
	o2 := Options{SegmentBlocks: 16, WriteBufferBlocks: 128, CleanLowWater: 4}.withDefaults()
	if floor := reserveSegments + 2 + 4*128/16; o2.CleanLowWater != floor || o2.CleanHighWater != floor+14 {
		t.Fatalf("low/high water %d/%d do not cover the write buffer: want %d/%d", o2.CleanLowWater, o2.CleanHighWater, floor, floor+14)
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{
		NewDataBytes:         1000,
		SummaryBytes:         100,
		CleanerReadBytes:     400,
		CleanerWriteBytes:    300,
		SegmentsCleaned:      10,
		SegmentsCleanedEmpty: 4,
		CleanedUtilSum:       3.0,
	}
	if got := s.WriteCost(); got != 1.8 {
		t.Fatalf("WriteCost = %v, want 1.8", got)
	}
	if got := s.AvgCleanedUtil(); got != 0.5 {
		t.Fatalf("AvgCleanedUtil = %v, want 0.5", got)
	}
	if got := s.EmptyCleanedFraction(); got != 0.4 {
		t.Fatalf("EmptyCleanedFraction = %v, want 0.4", got)
	}
	if (Stats{}).WriteCost() != 1.0 {
		t.Fatal("zero stats write cost must be 1.0")
	}
	if (Stats{}).AvgCleanedUtil() != 0 || (Stats{}).EmptyCleanedFraction() != 0 {
		t.Fatal("zero stats ratios must be 0")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyCostBenefit.String() != "cost-benefit" || PolicyGreedy.String() != "greedy" {
		t.Fatal("policy strings")
	}
	if CleaningPolicy(99).String() != "unknown" {
		t.Fatal("unknown policy string")
	}
}

func TestReadCache(t *testing.T) {
	opts := testOptions()
	opts.ReadCacheBlocks = 64
	fs, d := newTestFS(t, 4096, opts)
	data := bytes.Repeat([]byte("cache me"), 4096)
	if err := fs.WriteFile("/c", data); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/c"); err != nil {
		t.Fatal(err)
	}
	pre := d.Stats()
	if got, err := fs.ReadFile("/c"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("cached read: %v", err)
	}
	delta := d.Stats().Sub(pre)
	if delta.BlocksRead != 0 {
		t.Fatalf("second read hit the disk for %d blocks despite the cache", delta.BlocksRead)
	}
	mustCheck(t, fs)
}

func TestReadCacheEviction(t *testing.T) {
	opts := testOptions()
	opts.ReadCacheBlocks = 2
	fs, _ := newTestFS(t, 4096, opts)
	if err := fs.WriteFile("/e", bytes.Repeat([]byte("x"), 10*layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Reading 10 blocks through a 2-block cache must still be correct.
	got, err := fs.ReadFile("/e")
	if err != nil || len(got) != 10*layout.BlockSize {
		t.Fatalf("read through tiny cache: %d bytes, %v", len(got), err)
	}
}

func TestCustomClock(t *testing.T) {
	var now uint64 = 1000
	opts := testOptions()
	opts.Clock = func() uint64 { return now }
	fs, _ := newTestFS(t, 2048, opts)
	if err := fs.WriteFile("/t", []byte("x")); err != nil {
		t.Fatal(err)
	}
	info, _ := fs.Stat("/t")
	if info.Mtime != 1000 {
		t.Fatalf("mtime %d, want 1000 from custom clock", info.Mtime)
	}
	now = 2000
	if _, err := fs.WriteAt("/t", 0, []byte("y")); err != nil {
		t.Fatal(err)
	}
	info, _ = fs.Stat("/t")
	if info.Mtime != 2000 {
		t.Fatalf("mtime %d after clock advance", info.Mtime)
	}
}

func TestDoubleIndirectFile(t *testing.T) {
	// A file big enough to need the double-indirect tree: beyond
	// 10 + 512 blocks.
	fs, d := newTestFS(t, 8192, testOptions())
	blockIdx := uint32(layout.NumDirect + layout.PointersPerBlock + 700)
	off := int64(blockIdx) * layout.BlockSize
	tail := []byte("deep in the double indirect tree")
	if err := fs.Create("/dind"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt("/dind", off, tail); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(tail))
	if _, err := fs.ReadAt("/dind", off, buf); err != nil || !bytes.Equal(buf, tail) {
		t.Fatalf("double-indirect read: %q, %v", buf, err)
	}
	mustCheck(t, fs)

	// And it survives a crash + roll-forward.
	d.Crash()
	d.Reopen()
	fs2, err := Mount(d, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.ReadAt("/dind", off, buf); err != nil || !bytes.Equal(buf, tail) {
		t.Fatalf("double-indirect after recovery: %q, %v", buf, err)
	}
	mustCheck(t, fs2)
}

func TestGreedyPolicyOnRealFS(t *testing.T) {
	opts := testOptions()
	opts.Policy = PolicyGreedy
	fs, _ := newTestFS(t, 2048, opts)
	payload := bytes.Repeat([]byte("g"), layout.BlockSize)
	for round := 0; round < 16; round++ {
		for i := 0; i < 150; i++ {
			if err := fs.WriteFile(fmt.Sprintf("/f%03d", i), payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fs.Stats().SegmentsCleaned == 0 {
		t.Fatal("greedy cleaner never ran")
	}
	mustCheck(t, fs)
}

func TestNoAgeSort(t *testing.T) {
	opts := testOptions()
	opts.NoAgeSort = true
	fs, _ := newTestFS(t, 2048, opts)
	payload := bytes.Repeat([]byte("n"), layout.BlockSize)
	for round := 0; round < 16; round++ {
		for i := 0; i < 150; i++ {
			if err := fs.WriteFile(fmt.Sprintf("/f%03d", i), payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustCheck(t, fs)
}

func TestExplicitClean(t *testing.T) {
	fs, _ := newTestFS(t, 2048, testOptions())
	payload := bytes.Repeat([]byte("c"), layout.BlockSize)
	for i := 0; i < 200; i++ {
		if err := fs.WriteFile("/churn", payload); err != nil {
			t.Fatal(err)
		}
	}
	free0 := fs.CleanSegments()
	if err := fs.Clean(); err != nil {
		t.Fatal(err)
	}
	if fs.CleanSegments() < free0 {
		t.Fatalf("explicit Clean reduced free segments: %d -> %d", free0, fs.CleanSegments())
	}
	mustCheck(t, fs)
}

func TestHardLinkSurvivesCleaningAndCrash(t *testing.T) {
	fs, d := newTestFS(t, 2048, testOptions())
	if err := fs.WriteFile("/orig", bytes.Repeat([]byte("L"), 2*layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Link("/orig", "/alias"); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), layout.BlockSize)
	for round := 0; round < 16; round++ {
		for i := 0; i < 140; i++ {
			if err := fs.WriteFile(fmt.Sprintf("/f%03d", i), payload); err != nil {
				t.Fatal(err)
			}
		}
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
	a, err := fs2.ReadFile("/orig")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fs2.ReadFile("/alias")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("hard link contents diverged")
	}
	info, _ := fs2.Stat("/alias")
	if info.Nlink != 2 {
		t.Fatalf("nlink %d after cleaning+crash, want 2", info.Nlink)
	}
	mustCheck(t, fs2)
}

func TestCorruptBothCheckpointsFailsMount(t *testing.T) {
	fs, d := newTestFS(t, 2048, testOptions())
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	sb := fs.Superblock()
	garbage := make([]byte, layout.BlockSize)
	for i := range garbage {
		garbage[i] = 0xff
	}
	for i := 0; i < 2; i++ {
		for b := uint32(0); b < sb.CheckpointBlocks; b++ {
			if err := d.Poke(sb.CheckpointAddr[i]+int64(b), garbage); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := Mount(d, testOptions()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("mount with both checkpoints corrupt: %v, want ErrNoCheckpoint", err)
	}
}

func TestCorruptLogTailStopsRollForwardCleanly(t *testing.T) {
	fs, d := newTestFS(t, 4096, testOptions())
	if err := fs.WriteFile("/safe", []byte("checkpointed")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The first post-checkpoint summary lands exactly at the checkpointed
	// head position.
	tailAddr := fs.segStart(fs.segs.head) + fs.segs.headOff
	if err := fs.WriteFile("/tail", []byte("after checkpoint")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the uncommitted log tail: roll-forward must stop at the
	// hole without failing the mount (the checkpointed state is intact).
	d.Crash()
	d.Reopen()
	garbage := make([]byte, layout.BlockSize)
	garbage[0] = 0x42
	if err := d.Poke(tailAddr, garbage); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(d, testOptions())
	if err != nil {
		t.Fatalf("mount with corrupt log tail: %v", err)
	}
	if got, err := fs2.ReadFile("/safe"); err != nil || string(got) != "checkpointed" {
		t.Fatalf("checkpointed data lost: %q, %v", got, err)
	}
	mustCheck(t, fs2)
}

func TestConcurrentAccess(t *testing.T) {
	fs, _ := newTestFS(t, 8192, testOptions())
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dir := fmt.Sprintf("/g%d", g)
			if err := fs.Mkdir(dir); err != nil {
				errs <- err
				return
			}
			for i := 0; i < 30; i++ {
				p := fmt.Sprintf("%s/f%d", dir, i)
				if err := fs.WriteFile(p, []byte(p)); err != nil {
					errs <- err
					return
				}
				got, err := fs.ReadFile(p)
				if err != nil || string(got) != p {
					errs <- fmt.Errorf("readback %s: %q %v", p, got, err)
					return
				}
				if i%3 == 0 {
					if err := fs.Remove(p); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	mustCheck(t, fs)
}

func TestDiskImageRoundTrip(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "fs.img")
	fs, d := newTestFS(t, 2048, testOptions())
	if err := fs.WriteFile("/persist", []byte("in the image")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	if err := d.Save(img); err != nil {
		t.Fatal(err)
	}
	d2, err := disk.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(d2, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.ReadFile("/persist")
	if err != nil || string(got) != "in the image" {
		t.Fatalf("image round trip: %q, %v", got, err)
	}
	mustCheck(t, fs2)
}

func TestLiveBytesByKind(t *testing.T) {
	fs, _ := newTestFS(t, 4096, testOptions())
	if err := fs.WriteFile("/d", bytes.Repeat([]byte("k"), 20*layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	live, err := fs.LiveBytesByKind()
	if err != nil {
		t.Fatal(err)
	}
	if live[layout.KindData] < 20*layout.BlockSize {
		t.Fatalf("data live %d", live[layout.KindData])
	}
	if live[layout.KindIndirect] == 0 {
		t.Fatal("20-block file must have an indirect block")
	}
	if live[layout.KindInode] == 0 || live[layout.KindImap] == 0 || live[layout.KindSegUsage] == 0 {
		t.Fatalf("metadata kinds missing: %v", live)
	}
	// Cross-check against the consistency sweep's per-segment totals.
	rep, err := fs.Check()
	if err != nil {
		t.Fatal(err)
	}
	var sweep, byKind int64
	for _, b := range rep.LiveBytesBySegment {
		sweep += b
	}
	for _, b := range live {
		byKind += b
	}
	if sweep != byKind {
		t.Fatalf("sweep total %d != by-kind total %d", sweep, byKind)
	}
}

func TestSegmentUtilizationAccessors(t *testing.T) {
	fs, _ := newTestFS(t, 2048, testOptions())
	if err := fs.WriteFile("/u", bytes.Repeat([]byte("u"), 50*layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	utils := fs.SegmentUtilizations()
	if int64(len(utils)) != fs.NumSegments() {
		t.Fatalf("%d utilizations for %d segments", len(utils), fs.NumSegments())
	}
	var any bool
	for _, u := range utils {
		if u < 0 || u > 1 {
			t.Fatalf("utilization %v out of range", u)
		}
		if u > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("no segment holds live data after a 50-block write")
	}
	if du := fs.DiskCapacityUtilization(); du <= 0 || du >= 1 {
		t.Fatalf("disk utilization %v", du)
	}
	if fs.SegmentBytes() != int64(testOptions().SegmentBlocks)*layout.BlockSize {
		t.Fatal("SegmentBytes mismatch")
	}
}

func TestUnmountedErrors(t *testing.T) {
	fs, _ := newTestFS(t, 2048, testOptions())
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); !errors.Is(err, ErrUnmounted) {
		t.Fatalf("double unmount: %v", err)
	}
	if _, err := fs.Stat("/"); !errors.Is(err, ErrUnmounted) {
		t.Fatalf("stat after unmount: %v", err)
	}
	if err := fs.Sync(); !errors.Is(err, ErrUnmounted) {
		t.Fatalf("sync after unmount: %v", err)
	}
	if err := fs.Checkpoint(); !errors.Is(err, ErrUnmounted) {
		t.Fatalf("checkpoint after unmount: %v", err)
	}
	if _, err := fs.Check(); !errors.Is(err, ErrUnmounted) {
		t.Fatalf("check after unmount: %v", err)
	}
	if err := fs.Clean(); !errors.Is(err, ErrUnmounted) {
		t.Fatalf("clean after unmount: %v", err)
	}
}

func TestOutOfInodes(t *testing.T) {
	opts := testOptions()
	opts.MaxInodes = 256 // one imap block worth
	fs, _ := newTestFS(t, 4096, opts)
	var err error
	for i := 0; i < 400; i++ {
		if err = fs.Create(fmt.Sprintf("/f%03d", i)); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrNoInodes) {
		t.Fatalf("err = %v, want ErrNoInodes", err)
	}
	// Deleting frees inums for reuse.
	if err := fs.Remove("/f000"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/again"); err != nil {
		t.Fatalf("create after free: %v", err)
	}
	mustCheck(t, fs)
}

func TestCleanReadLiveOnly(t *testing.T) {
	run := func(sparse bool) (Stats, *FS) {
		opts := testOptions()
		opts.CleanReadLiveOnly = sparse
		fs, _ := newTestFS(t, 2048, opts)
		payload := bytes.Repeat([]byte("s"), layout.BlockSize)
		for round := 0; round < 16; round++ {
			for i := 0; i < 150; i++ {
				if err := fs.WriteFile(fmt.Sprintf("/f%03d", i), payload); err != nil {
					t.Fatal(err)
				}
			}
		}
		return fs.Stats(), fs
	}
	full, fsFull := run(false)
	sparse, fsSparse := run(true)
	if sparse.SegmentsCleaned == 0 || full.SegmentsCleaned == 0 {
		t.Fatal("cleaner never ran")
	}
	// Reading only live blocks must move fewer bytes per cleaned segment.
	fullPerSeg := float64(full.CleanerReadBytes) / float64(full.SegmentsCleaned)
	sparsePerSeg := float64(sparse.CleanerReadBytes) / float64(sparse.SegmentsCleaned)
	if sparsePerSeg >= fullPerSeg {
		t.Fatalf("sparse cleaning read %.0f bytes/segment, full %.0f", sparsePerSeg, fullPerSeg)
	}
	mustCheck(t, fsFull)
	mustCheck(t, fsSparse)
}

func TestCoarseAgeSort(t *testing.T) {
	opts := testOptions()
	opts.CoarseAgeSort = true
	fs, _ := newTestFS(t, 2048, opts)
	payload := bytes.Repeat([]byte("a"), layout.BlockSize)
	for round := 0; round < 16; round++ {
		for i := 0; i < 150; i++ {
			if err := fs.WriteFile(fmt.Sprintf("/f%03d", i), payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fs.Stats().SegmentsCleaned == 0 {
		t.Fatal("cleaner never ran")
	}
	mustCheck(t, fs)
}

func TestCleanIdle(t *testing.T) {
	fs, _ := newTestFS(t, 2048, testOptions())
	payload := bytes.Repeat([]byte("i"), layout.BlockSize)
	// Create fragmentation without dropping below the low-water mark.
	for i := 0; i < 400; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/f%02d", i%40), payload); err != nil {
			t.Fatal(err)
		}
	}
	free0 := fs.CleanSegments()
	if err := fs.CleanIdle(8); err != nil {
		t.Fatal(err)
	}
	if got := fs.CleanSegments(); got < free0 {
		t.Fatalf("idle cleaning lost segments: %d -> %d", free0, got)
	}
	if err := fs.CleanIdle(0); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, fs)
}

func TestPerBlockAgesInSummaries(t *testing.T) {
	// Blocks written at different times into the same segment must carry
	// distinct ages in the summary (the Section 3.6 improvement).
	var now uint64
	opts := testOptions()
	opts.Clock = func() uint64 { return now }
	opts.WriteBufferBlocks = 64
	fs, d := newTestFS(t, 2048, opts)
	now = 100
	if err := fs.WriteFile("/old", bytes.Repeat([]byte("o"), layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	now = 900
	if err := fs.WriteFile("/new", bytes.Repeat([]byte("n"), layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Find the data entries in the head segment's summaries.
	start := fs.segStart(fs.segs.head)
	ages := map[uint64]bool{}
	off := int64(0)
	for off <= fs.segBlocks-2 {
		buf, err := d.Peek(start + off)
		if err != nil {
			t.Fatal(err)
		}
		s, err := layout.DecodeSummary(buf)
		if err != nil {
			break
		}
		for _, e := range s.Entries {
			if e.Kind == layout.KindData {
				ages[e.Age] = true
			}
		}
		off += 1 + int64(len(s.Entries))
	}
	if !ages[100] || !ages[900] {
		t.Fatalf("summary data ages = %v, want both 100 and 900", ages)
	}
}

func TestDirDeltaStart(t *testing.T) {
	bs := layout.BlockSize
	old := bytes.Repeat([]byte("a"), 3*bs)
	same := append([]byte(nil), old...)
	if got := dirDeltaStart(old, same); got != 3*bs {
		t.Fatalf("identical: start %d, want %d", got, 3*bs)
	}
	changed := append([]byte(nil), old...)
	changed[2*bs+5] = 'z'
	if got := dirDeltaStart(old, changed); got != 2*bs {
		t.Fatalf("third-block change: start %d, want %d", got, 2*bs)
	}
	grown := append(append([]byte(nil), old...), 'x')
	if got := dirDeltaStart(old, grown); got != 3*bs {
		t.Fatalf("append: start %d, want %d", got, 3*bs)
	}
	if got := dirDeltaStart(nil, old); got != 0 {
		t.Fatalf("fresh: start %d, want 0", got)
	}
	shrunk := old[:bs+10]
	if got := dirDeltaStart(old, shrunk); got != bs {
		t.Fatalf("shrink: start %d, want %d", got, bs)
	}
}

func TestLargeDirectoryAppendWritesOneBlock(t *testing.T) {
	// Appending an entry to a large directory must dirty only the tail,
	// not rewrite the whole directory (the delta optimization).
	fs, _ := newTestFS(t, 8192, testOptions())
	for i := 0; i < 500; i++ {
		if err := fs.Create(fmt.Sprintf("/a-rather-long-name-%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	pre := fs.Stats().LogBytesByKind[layout.KindData]
	if err := fs.Create("/one-more"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	delta := fs.Stats().LogBytesByKind[layout.KindData] - pre
	// The root directory is ~4 blocks of entries; one append must write
	// at most 2 data blocks (the changed tail), not all of them.
	if delta > 2*layout.BlockSize {
		t.Fatalf("append to large dir wrote %d data bytes", delta)
	}
	mustCheck(t, fs)
}

func TestDirDeltaSurvivesRemount(t *testing.T) {
	// After a remount, the saved byte image is gone; the first save must
	// still produce a correct directory.
	fs, d := newTestFS(t, 4096, testOptions())
	for i := 0; i < 50; i++ {
		if err := fs.Create(fmt.Sprintf("/f%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(d, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs2.Remove("/f25"); err != nil {
		t.Fatal(err)
	}
	if err := fs2.Create("/post"); err != nil {
		t.Fatal(err)
	}
	entries, err := fs2.ReadDir("/")
	if err != nil || len(entries) != 50 {
		t.Fatalf("%d entries, %v", len(entries), err)
	}
	mustCheck(t, fs2)
}

func TestVerifyLogDetectsCorruption(t *testing.T) {
	fs, d := newTestFS(t, 2048, testOptions())
	if err := fs.WriteFile("/v", bytes.Repeat([]byte("v"), 8*layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	problems, err := fs.VerifyLog()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("clean log reported problems: %v", problems)
	}
	// Flip a bit in one of the file's data blocks behind the FS's back.
	mi, err := fs.loadInode(func() uint32 { i, _ := fs.Stat("/v"); return i.Inum }())
	if err != nil {
		t.Fatal(err)
	}
	addr, err := fs.blockAddr(mi, 3)
	if err != nil || addr == layout.NilAddr {
		t.Fatalf("block addr: %d, %v", addr, err)
	}
	blk, _ := d.Peek(addr)
	blk[100] ^= 0xff
	if err := d.Poke(addr, blk); err != nil {
		t.Fatal(err)
	}
	problems, err = fs.VerifyLog()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) == 0 {
		t.Fatal("silent corruption not detected by deep verify")
	}
}

func TestVerifyLogCleanAfterHeavyCleaning(t *testing.T) {
	// Segments reused after cleaning leave stale summaries behind their
	// new chain; deep verification must not report those as corruption.
	fs, _ := newTestFS(t, 2048, testOptions())
	payload := bytes.Repeat([]byte("w"), layout.BlockSize)
	for round := 0; round < 16; round++ {
		for i := 0; i < 150; i++ {
			if err := fs.WriteFile(fmt.Sprintf("/f%03d", i), payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fs.Stats().SegmentsCleaned == 0 {
		t.Fatal("cleaner never ran")
	}
	problems, err := fs.VerifyLog()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("false positives after cleaning: %v", problems[:min(3, len(problems))])
	}
}
