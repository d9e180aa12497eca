package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

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

func TestCleanReadModeString(t *testing.T) {
	if CleanReadPlanned.String() != "planned" || CleanReadWhole.String() != "whole" || CleanReadLive.String() != "live" {
		t.Fatal("clean-read mode strings")
	}
	if CleanReadMode(99).String() != "unknown" {
		t.Fatal("unknown clean-read mode string")
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

// TestMaxInodesRoundsUpToImapBlocks pins what Options.MaxInodes admits: the
// inode table is rounded up to whole inode-map blocks, so MaxInodes 256 gives
// 2 × 185 = 370 entries, and creates succeed up to inum 369 — 368 files
// besides the root.
func TestMaxInodesRoundsUpToImapBlocks(t *testing.T) {
	opts := testOptions()
	opts.MaxInodes = 256
	fs, _ := newTestFS(t, 4096, opts)
	if n := fs.imap.maxInodes(); n != 370 {
		t.Fatalf("MaxInodes 256 gives an inode table of %d entries, want 370", n)
	}
	created, top := 0, uint32(0)
	for {
		name := fmt.Sprintf("/f%03d", created)
		err := fs.Create(name)
		if errors.Is(err, ErrNoInodes) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		inum, err := fs.resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		created, top = created+1, max(top, inum)
	}
	if created != 368 || top != 369 {
		t.Fatalf("created %d files up to inum %d before ErrNoInodes, want 368 up to 369", created, top)
	}
	mustCheck(t, fs)
}

func TestOutOfInodes(t *testing.T) {
	opts := testOptions()
	opts.MaxInodes = 256 // two imap blocks: TestMaxInodesRoundsUpToImapBlocks
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

// TestCleanReadModes runs one script under each way of reading a victim.
// The overwrites land on random files of a set that fills about 40 % of
// the disk, so segments die piecemeal and the cleaner must read live ones
// (an empty segment is taken first and read by none). The modes change
// what the cleaner reads, not which live blocks it copies or in what
// order: the bytes written and the final image are the same. Reading the
// live blocks alone moves the fewest bytes, the whole segment the most,
// and the planned read, which reads through gaps cheaper to transfer than
// to skip, keeps the disk busy for less time than the whole read.
func TestCleanReadModes(t *testing.T) {
	type result struct {
		st    Stats
		busy  time.Duration
		image string
	}
	run := func(mode CleanReadMode) result {
		opts := testOptions()
		opts.CleanRead = mode
		fs, d := newTestFS(t, 2048, opts)
		payload := bytes.Repeat([]byte("s"), layout.BlockSize)
		const files = 800
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 5*files; i++ {
			name := i
			if i >= files {
				name = rng.Intn(files)
			}
			if err := fs.WriteFile(fmt.Sprintf("/f%03d", name), payload); err != nil {
				t.Fatal(err)
			}
		}
		mustCheck(t, fs)
		r := result{st: fs.Stats(), busy: d.Stats().BusyTime}
		if err := fs.Unmount(); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for a := int64(0); a < d.Geometry().NumBlocks; a++ {
			b, err := d.Peek(a)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
		r.image = hex.EncodeToString(h.Sum(nil))
		return r
	}
	whole, live, planned := run(CleanReadWhole), run(CleanReadLive), run(CleanReadPlanned)
	if planned.st.SegmentsCleaned == planned.st.SegmentsCleanedEmpty {
		t.Fatal("the cleaner cleaned only empty segments")
	}
	for _, r := range []result{live, planned} {
		if r.st.CleanerWriteBytes != whole.st.CleanerWriteBytes || r.image != whole.image {
			t.Errorf("copied %d bytes into image %s; whole-segment reads copied %d into %s",
				r.st.CleanerWriteBytes, r.image, whole.st.CleanerWriteBytes, whole.image)
		}
	}
	if !(live.st.CleanerReadBytes <= planned.st.CleanerReadBytes && planned.st.CleanerReadBytes <= whole.st.CleanerReadBytes) {
		t.Errorf("cleaner read %d (live) / %d (planned) / %d (whole) bytes, want live <= planned <= whole",
			live.st.CleanerReadBytes, planned.st.CleanerReadBytes, whole.st.CleanerReadBytes)
	}
	if planned.busy >= whole.busy {
		t.Errorf("planned reads kept the disk busy %v, whole-segment reads %v", planned.busy, whole.busy)
	}
}

// victimFixture writes 120 one-block files and overwrites all but /f000
// and /f002, so the segment holding those two is mostly dead and the old
// block of /f001 lies dead between them. It returns the two live blocks'
// addresses and the dead one's.
func victimFixture(t *testing.T, opts Options) (fs *FS, d *disk.Disk, live0, dead, live2 int64) {
	t.Helper()
	fs, d = newTestFS(t, 2048, opts)
	payload := bytes.Repeat([]byte("c"), layout.BlockSize)
	for i := 0; i < 120; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/f%03d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	_, dead = dataBlockAddr(t, fs, "/f001", 0)
	for i := 1; i < 120; i++ {
		if i == 2 {
			continue
		}
		if err := fs.WriteFile(fmt.Sprintf("/f%03d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	_, live0 = dataBlockAddr(t, fs, "/f000", 0)
	_, live2 = dataBlockAddr(t, fs, "/f002", 0)
	if live2 != live0+2 || dead != live0+1 {
		t.Fatalf("blocks at %d, %d, %d: want the dead one between the live ones", live0, dead, live2)
	}
	return fs, d, live0, dead, live2
}

// cleanVictim runs one cleaning pass over the segment holding addr.
func cleanVictim(t *testing.T, fs *FS, addr int64) (seg int64) {
	t.Helper()
	seg = fs.segOf(addr)
	fs.mu.Lock()
	fs.inCleaner = true
	err := fs.cleanPass([]candidate{{seg: seg, u: fs.usage.utilization(seg)}})
	fs.inCleaner = false
	fs.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

// TestCleanReadSkipsCorruptLiveBlock corrupts one live data block in a
// victim: a planned read verifies it against its summary entry, leaves it
// where it is and quarantines the segment, and reading the file still
// reports the corruption.
func TestCleanReadSkipsCorruptLiveBlock(t *testing.T) {
	fs, d, addr, _, _ := victimFixture(t, testOptions())
	inum, _ := dataBlockAddr(t, fs, "/f000", 0)
	if err := d.InjectFault(disk.Fault{Kind: disk.FaultCorrupt, Addr: addr, Seed: 41}); err != nil {
		t.Fatal(err)
	}
	if seg := cleanVictim(t, fs, addr); !fs.segs.isQuarantined(seg) {
		t.Fatalf("segment %d holding a corrupt live block was not quarantined", seg)
	}
	if _, now := dataBlockAddr(t, fs, "/f000", 0); now != addr {
		t.Fatalf("the corrupt block moved from %d to %d", addr, now)
	}
	var ce *ErrCorrupted
	if _, err := fs.ReadFile("/f000"); !errors.As(err, &ce) || ce.Ino != inum || ce.Addr != addr {
		t.Fatalf("read err = %v, want ErrCorrupted at inode %d address %d", err, inum, addr)
	}
}

// TestCleanReadDeadBlockFaults damages the dead block a planned read reads
// through between two live ones. Neither a corrupt nor an unreadable dead
// block quarantines the victim: the live blocks are verified one by one
// (and, when the request over all three fails, read on their own) and are
// copied forward. Whole-segment reads verify every partial write as a
// whole, so there a corrupt dead block quarantines the victim; its live
// blocks, verified one by one, are still copied.
func TestCleanReadDeadBlockFaults(t *testing.T) {
	for _, c := range []struct {
		name       string
		mode       CleanReadMode
		kind       disk.FaultKind
		quarantine bool
	}{
		{"planned/corrupt", CleanReadPlanned, disk.FaultCorrupt, false},
		{"planned/unreadable", CleanReadPlanned, disk.FaultReadError, false},
		{"whole/corrupt", CleanReadWhole, disk.FaultCorrupt, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := testOptions()
			opts.CleanRead = c.mode
			fs, d, live0, dead, live2 := victimFixture(t, opts)
			if err := d.InjectFault(disk.Fault{Kind: c.kind, Addr: dead, Seed: 43}); err != nil {
				t.Fatal(err)
			}
			seg := cleanVictim(t, fs, dead)
			if fs.segs.isQuarantined(seg) != c.quarantine {
				t.Fatalf("segment %d quarantined: %v, want %v", seg, !c.quarantine, c.quarantine)
			}
			for f, was := range map[string]int64{"/f000": live0, "/f002": live2} {
				if _, now := dataBlockAddr(t, fs, f, 0); now == was {
					t.Errorf("%s was not copied forward from %d", f, was)
				}
				if _, err := fs.ReadFile(f); err != nil {
					t.Errorf("read %s: %v", f, err)
				}
			}
			if err := fs.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			mustCheck(t, fs)
		})
	}
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
	// distinct ages in the summary (the Section 3.6 improvement). Each
	// operation's tick adds 1 to the clock set before it.
	opts := testOptions()
	opts.WriteBufferBlocks = 64
	fs, d := newTestFS(t, 2048, opts)
	fs.ticks.Store(100 - 1)
	if err := fs.WriteFile("/old", bytes.Repeat([]byte("o"), layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	fs.ticks.Store(900 - 1)
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

func TestLargeDirectoryAppendWritesOneBlock(t *testing.T) {
	// A change to a large directory must dirty only the changed entry's
	// block on, not rewrite the whole directory — also when it is the first
	// change after a Mount, live or made by roll-forward, and nothing
	// remembers what the directory held before.
	fs, d := newTestFS(t, 8192, testOptions())
	for i := 0; i < 500; i++ {
		if err := fs.Create(fmt.Sprintf("/a-rather-long-name-%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// The root directory is ~4 blocks of entries; the append lands in the
	// last of them.
	oneMore := func(fs *FS, name string) {
		t.Helper()
		pre := fs.Stats().LogBytesByKind[layout.KindData]
		if err := fs.Create(name); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		if delta := fs.Stats().LogBytesByKind[layout.KindData] - pre; delta != layout.BlockSize {
			t.Fatalf("append of %s to the large directory wrote %d data bytes, want one block", name, delta)
		}
	}
	oneMore(fs, "/one-more")
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(d, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	oneMore(fs, "/first-after-mount")
	mustCheck(t, fs)
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}

	// Roll-forward: create as many files as, with the root, fill one inode
	// block and put one inode in a second, and cut the power at the end of
	// the head segment. Where that falls between the two inode blocks the
	// root comes back with an entry whose inode did not, and dropping that
	// one entry must again cost one block. Padding moves the log head until
	// it does. A buffer-full flush ends at a segment's end (flushAt), so
	// the one that can be cut between the inode blocks is the last
	// create's, which stages two blocks at once: the names are sized so
	// that its dirlog record also starts a second dirlog block.
	image := d.Snapshot()
	name := func(i, n int) string { return fmt.Sprintf("k%02d-%s", i, strings.Repeat("n", n-4)) }
	dirlogBlocks := func(n, records int) int {
		var c layout.DirLogCount
		for i := 0; i < records; i++ {
			c.Add(&layout.DirOp{Op: layout.DirOpCreate, Name: name(i, n)})
		}
		return c.Blocks()
	}
	nameLen := 0
	for n := 5; n <= layout.MaxNameLen && nameLen == 0; n++ {
		if dirlogBlocks(n, layout.InodesPerBlock-1) == 1 && dirlogBlocks(n, layout.InodesPerBlock) == 2 {
			nameLen = n
		}
	}
	if nameLen == 0 {
		t.Fatal("no name length starts a second dirlog block at the last create")
	}
	// 502 entries so far, /pad, the new files less the one dropped.
	const survivors = 502 + 1 + layout.InodesPerBlock - 1
	for pad := 0; pad < testOptions().SegmentBlocks; pad++ {
		d := disk.FromSnapshot(image)
		fs, err := Mount(d, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("/pad", make([]byte, pad*layout.BlockSize)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		d.FailAfterWrites(fs.segBlocks - fs.segs.headOff)
		for i := 0; i < layout.InodesPerBlock; i++ {
			if err := fs.Create("/" + name(i, nameLen)); errors.Is(err, disk.ErrCrashed) {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		_ = fs.Sync() // fails where the device stopped
		d.Reopen()
		fs, err = Mount(d, testOptions())
		if err != nil {
			t.Fatalf("pad %d: mount after the cut: %v", pad, err)
		}
		mustCheck(t, fs)
		root, err := fs.ReadDir("/")
		if err != nil {
			t.Fatal(err)
		}
		if len(root) != survivors {
			continue
		}
		if got := fs.Stats().LogBytesByKind[layout.KindData]; got != layout.BlockSize {
			t.Fatalf("pad %d: roll-forward dropped one entry of the large directory and wrote %d data bytes, want one block", pad, got)
		}
		return
	}
	t.Fatal("no padding put the cut between the two inode blocks")
}

func TestDirDeltaSurvivesRemount(t *testing.T) {
	// The first saves after a remount, a delete from the middle and an
	// append, must still produce a correct directory.
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

// TestDirectorySavesMatchWholeEncoding is the differential test of saveDir's
// index rule: over a seeded mix of every namespace operation on a
// four-block directory with names of 1 to 255 bytes, the directory file
// read back after each operation equals the whole encoding of the cached
// entries byte for byte — so encoding from the changed entry's block on
// lost nothing a whole rewrite would have written.
func TestDirectorySavesMatchWholeEncoding(t *testing.T) {
	fs, d := newTestFS(t, 16384, testOptions())
	m := NewModel()
	step := stepper(t, &fs, m)
	rng := rand.New(rand.NewSource(22))
	check := func(after Op) {
		t.Helper()
		fs.mu.RLock()
		defer fs.mu.RUnlock()
		for _, p := range []string{"/", "/big", "/side"} {
			inum, err := fs.resolve(p)
			if err != nil {
				t.Fatal(err)
			}
			entries, err := fs.loadDir(inum)
			if err != nil {
				t.Fatal(err)
			}
			want, err := layout.EncodeDirectory(entries)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, fs.icache.get(inum).ino.Size)
			if _, err := fs.readAt(fs.icache.get(inum), 0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("after %v: the file of %s (%d bytes) differs from its %d entries' encoding (%d bytes) at byte %d",
					after, p, len(got), len(entries), len(want), diffAt(got, want))
			}
		}
	}
	do := func(op Op) {
		t.Helper()
		step(op)
		check(op)
	}
	fresh := func(dir string) string {
		for {
			name := make([]byte, 1+rng.Intn(layout.MaxNameLen))
			for i := range name {
				name[i] = byte('a' + rng.Intn(26))
			}
			p := dir + "/" + string(name)
			if _, taken := m.Files[p]; !taken {
				return p
			}
		}
	}
	// take removes a random path from the list and returns it.
	take := func(list *[]string) string {
		i := rng.Intn(len(*list))
		p := (*list)[i]
		*list = slices.Delete(*list, i, i+1)
		return p
	}
	step(Op{Kind: OpMkdir, Path: "/big"})
	do(Op{Kind: OpMkdir, Path: "/side"})
	var big, side []string // the files in each
	for i := 0; i < 3000; i++ {
		r := rng.Intn(100)
		switch {
		case len(big) < 100: // about four blocks at 134 bytes an entry
			r = 0
		case len(big) > 140 || len(side) > 40:
			r = 99
		}
		switch {
		case r < 25:
			p := fresh("/big")
			do(Op{Kind: OpCreate, Path: p})
			do(Op{Kind: OpWrite, Path: p, Data: nonZero(i, 1+i%60)})
			big = append(big, p)
		case r < 40:
			old, p := big[rng.Intn(len(big))], fresh("/big")
			if err := fs.Link(old, p); err != nil {
				t.Fatalf("link %s %s: %v", old, p, err)
			}
			m.Files[p] = m.Files[old]
			check(Op{Kind: OpCreate, Path: p})
			big = append(big, p)
		case r < 55: // within the directory, to a new name
			p := fresh("/big")
			do(Op{Kind: OpRename, Path: take(&big), Path2: p})
			big = append(big, p)
		case r < 60: // within the directory, over another entry
			do(Op{Kind: OpRename, Path: take(&big), Path2: big[rng.Intn(len(big))]})
		case r < 70:
			p := fresh("/side")
			do(Op{Kind: OpRename, Path: take(&big), Path2: p})
			side = append(side, p)
		case r < 80 && len(side) > 0:
			p := fresh("/big")
			do(Op{Kind: OpRename, Path: take(&side), Path2: p})
			big = append(big, p)
		case r < 95:
			do(Op{Kind: OpRemove, Path: take(&big)})
		case r < 99:
			do(Op{Kind: OpSync})
		default:
			if len(side) > 0 {
				do(Op{Kind: OpRemove, Path: take(&side)})
			}
		}
		if i == 1500 {
			fs = remountVerify(t, fs, d, m)
		}
	}
	if info, err := fs.Stat("/big"); err != nil || info.Size < 3*layout.BlockSize {
		t.Fatalf("/big ended %d bytes long (err %v), want about four blocks", info.Size, err)
	}
	remountVerify(t, fs, d, m)
}

// TestLinkCountOverflow: the link that would wrap the inode's 16-bit
// reference count to zero is refused before anything is logged.
func TestLinkCountOverflow(t *testing.T) {
	fs, d := newTestFS(t, 4096, testOptions())
	if err := fs.WriteFile("/f", []byte("reached by many names")); err != nil {
		t.Fatal(err)
	}
	mi, err := fs.resolveFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	mi.ino.Nlink = math.MaxUint16
	before, seq := *fs.icache.get(RootInum).dir, fs.dirLog.seq
	if err := fs.Link("/f", "/g"); !errors.Is(err, ErrTooManyLinks) {
		t.Fatalf("link 65536: %v, want ErrTooManyLinks", err)
	}
	if after := *fs.icache.get(RootInum).dir; !slices.Equal(after, before) || fs.dirLog.seq != seq || mi.ino.Nlink != math.MaxUint16 || fs.Degraded() {
		t.Fatalf("the refused link left a trace: entries %v, %d directory-op records, nlink %d, degraded %v",
			after, fs.dirLog.seq-seq, mi.ino.Nlink, fs.Degraded())
	}
	mi.ino.Nlink = 1
	mustCheck(t, remount(t, fs, d))
}

// TestDropBlocksFromBothSides drops a file's dirty blocks by probing its
// block range (a short file under a full cache) and by scanning the cache
// (a long file with one dirty block); either way exactly that file's
// blocks go back to the pool.
func TestDropBlocksFromBothSides(t *testing.T) {
	opts := testOptions()
	opts.WriteBufferBlocks = 256
	fs, _ := newTestFS(t, 16384, opts)
	const long = 2000 * layout.BlockSize
	if err := fs.WriteFile("/long", make([]byte, long)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/s%02d", i), nonZero(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	held := func() int {
		t.Helper()
		if s := fs.bpool.Stats(); s.Gets != s.Puts+s.Drops+int64(len(fs.dcache)) {
			t.Fatalf("%+v with %d dirty blocks cached", s, len(fs.dcache))
		}
		return len(fs.dcache)
	}
	n := held()
	if err := fs.Remove("/s07"); err != nil { // one block to probe, ~50 cached
		t.Fatal(err)
	}
	if got := held(); got != n-1 {
		t.Fatalf("removing a one-block file took the cache from %d dirty blocks to %d", n, got)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt("/long", long-10, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/other", nonZero(1, 100)); err != nil {
		t.Fatal(err)
	}
	n = held()
	if err := fs.Remove("/long"); err != nil { // 2000 blocks, a handful cached
		t.Fatal(err)
	}
	if got := held(); got != n-1 {
		t.Fatalf("removing the long file took the cache from %d dirty blocks to %d", n, got)
	}
	mustCheck(t, fs)
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
	if want := fmt.Sprintf("block %d (data)", addr); !strings.Contains(problems[0], want) {
		t.Fatalf("deep verify reported %q, want it to name %q", problems, want)
	}
}

// TestVerifyLogChecksEntrySums re-encodes one summary with a wrong entry Sum
// but the DataChecksum its data still matches — the case a whole-write
// checksum cannot see, and the invariant the writer and the cleaner rely on
// when they reuse entry sums. Deep verify must name that block.
func TestVerifyLogChecksEntrySums(t *testing.T) {
	fs, d := newTestFS(t, 2048, testOptions())
	if err := fs.WriteFile("/v", nonZero(7, 8*layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat("/v")
	if err != nil {
		t.Fatal(err)
	}
	mi, err := fs.loadInode(info.Inum)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := fs.blockAddr(mi, 5)
	if err != nil || addr == layout.NilAddr {
		t.Fatalf("block addr: %d, %v", addr, err)
	}
	// Find the partial write that describes addr.
	sumAddr := layout.NilAddr
	s := fs.getWalkScratch()
	for w := fs.walkSegment(fs.segOf(addr), s); w.Next(); {
		if addr >= w.DataAddr() && addr < w.DataAddr()+int64(len(s.Entries)) {
			sumAddr = w.DataAddr() - 1
		}
	}
	fs.putWalkScratch(s)
	if sumAddr == layout.NilAddr {
		t.Fatal("no summary describes the block")
	}
	blk, _ := d.Peek(sumAddr)
	sum, err := layout.DecodeSummary(blk)
	if err != nil {
		t.Fatal(err)
	}
	sum.Entries[addr-sumAddr-1].Sum ^= 1
	if blk, err = sum.Encode(); err != nil {
		t.Fatal(err)
	}
	if err := d.Poke(sumAddr, blk); err != nil {
		t.Fatal(err)
	}
	problems, err := fs.VerifyLog()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("block %d (data)", addr)
	if len(problems) != 1 || !strings.Contains(problems[0], want) {
		t.Fatalf("deep verify reported %q, want one problem naming %q", problems, want)
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
