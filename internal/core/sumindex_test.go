package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/disk"
	"repro/internal/layout"
)

// The index geometry of the mount-free tests: 4 segments of 16 blocks from
// address 10.
const (
	sumTestBase   = 10
	sumTestBlocks = 16
	sumTestSegs   = 4
)

// held counts the sums the index holds, and the segments holding any.
func (x *sumIndex) held() (sums, segs int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, s := range x.segs {
		if s != nil {
			segs++
			for _, w := range s[x.segBlocks:] {
				sums += bits.OnesCount32(w)
			}
		}
	}
	return sums, segs
}

func sumEntries(sums ...uint32) []layout.SummaryEntry {
	out := make([]layout.SummaryEntry, len(sums))
	for i, s := range sums {
		out[i] = layout.SummaryEntry{Kind: layout.KindData, Sum: s}
	}
	return out
}

// noWalk fails the test if a lookup harvests.
func noWalk(t *testing.T) func(int64, func(int64, []layout.SummaryEntry)) error {
	return func(seg int64, _ func(int64, []layout.SummaryEntry)) error {
		t.Errorf("lookup harvested segment %d", seg)
		return nil
	}
}

func TestSumIndexRecordLookupDrop(t *testing.T) {
	x := newSumIndex(sumTestBase, sumTestBlocks, sumTestSegs)
	if sums, segs := x.held(); sums != 0 || segs != 0 {
		t.Fatalf("a new index holds %d sums in %d segments", sums, segs)
	}
	seg1 := int64(sumTestBase + sumTestBlocks)
	x.record(seg1+1, sumEntries(11, 0, 13)) // a zero sum is a sum
	x.record(seg1+15, sumEntries(99))       // the last block of the segment
	for addr, want := range map[int64]uint32{seg1 + 1: 11, seg1 + 2: 0, seg1 + 3: 13, seg1 + 15: 99} {
		if sum, ok, err := x.lookup(addr, noWalk(t)); sum != want || !ok || err != nil {
			t.Errorf("lookup(%d) = %d, %v, %v; want %d", addr, sum, ok, err, want)
		}
	}
	if sums, segs := x.held(); sums != 4 || segs != 1 {
		t.Fatalf("index holds %d sums in %d segments, want 4 in 1", sums, segs)
	}
	// Outside the segment area, or across a segment's end: nothing recorded,
	// nothing found, nothing walked.
	x.record(sumTestBase-1, sumEntries(1))
	x.record(sumTestBase+sumTestSegs*sumTestBlocks, sumEntries(1))
	x.record(seg1+15, sumEntries(1, 2))
	for _, addr := range []int64{0, sumTestBase - 1, sumTestBase + sumTestSegs*sumTestBlocks} {
		if _, ok, err := x.lookup(addr, noWalk(t)); ok || err != nil {
			t.Errorf("lookup(%d) outside the segment area = %v, %v", addr, ok, err)
		}
	}
	if sum, _, _ := x.lookup(seg1+15, noWalk(t)); sum != 99 {
		t.Errorf("a run crossing the segment end overwrote block 15: %d", sum)
	}
	x.drop(1)
	if sums, segs := x.held(); sums != 0 || segs != 0 {
		t.Fatalf("after drop the index holds %d sums in %d segments", sums, segs)
	}
}

// segmentImage lays partial writes of the given sizes out in one segment's
// worth of bytes, each block filled with its own address, and returns the
// image and the sum of every described block by address.
func segmentImage(t *testing.T, start int64, sizes ...int) ([]byte, map[int64]uint32) {
	t.Helper()
	img := make([]byte, sumTestBlocks*layout.BlockSize)
	sums := map[int64]uint32{}
	off := int64(0)
	for seq, n := range sizes {
		entries := make([]layout.SummaryEntry, n)
		for i := range entries {
			addr := start + off + 1 + int64(i)
			blk := img[(off+1+int64(i))*layout.BlockSize:][:layout.BlockSize]
			copy(blk, bytes.Repeat([]byte{byte(addr)}, layout.BlockSize))
			entries[i] = layout.SummaryEntry{Kind: layout.KindData, Inum: 7, BlockNo: uint32(i), Sum: layout.Checksum(blk)}
			sums[addr] = entries[i].Sum
		}
		sum := &layout.Summary{WriteSeq: uint64(seq + 1), NextSeg: layout.NilAddr, Entries: entries}
		blk, err := sum.Encode()
		if err != nil {
			t.Fatal(err)
		}
		copy(img[off*layout.BlockSize:], blk)
		off += int64(1 + n)
	}
	return img, sums
}

// walkOver is a lookup walk over src that counts its runs.
func walkOver(src layout.BlockSource, walks *int) func(int64, func(int64, []layout.SummaryEntry)) error {
	return func(seg int64, add func(int64, []layout.SummaryEntry)) error {
		*walks++
		s := layout.NewWalkScratch()
		w := layout.WalkSegment(src, sumTestBase+seg*sumTestBlocks, sumTestBlocks, s)
		for w.Next() {
			add(w.DataAddr(), s.Entries)
		}
		_, err := w.End()
		return err
	}
}

// TestSumIndexHarvestOnce: the first miss in a segment nobody seeded walks
// its chain through the block source, once; after that a block the chain
// does not describe is reported as such without another read, until the
// segment is dropped.
func TestSumIndexHarvestOnce(t *testing.T) {
	start := int64(sumTestBase + 2*sumTestBlocks)
	img, want := segmentImage(t, start, 3, 2)
	var reads []int64
	image := layout.ImageSource(start, img)
	src := func(addr int64) ([]byte, error) {
		reads = append(reads, addr)
		return image(addr)
	}
	walks := 0
	x := newSumIndex(sumTestBase, sumTestBlocks, sumTestSegs)
	for addr, sum := range want {
		if got, ok, err := x.lookup(addr, walkOver(src, &walks)); got != sum || !ok || err != nil {
			t.Fatalf("lookup(%d) = %d, %v, %v; want %d", addr, got, ok, err, sum)
		}
	}
	// Summaries at offsets 0 and 4, and the one at 7 that ends the chain.
	if walks != 1 || fmt.Sprint(reads) != fmt.Sprint([]int64{start, start + 4, start + 7}) {
		t.Fatalf("%d walks reading %v, want one reading the three summary slots", walks, reads)
	}
	// Not described: a summary's own address, and the unwritten tail.
	for _, addr := range []int64{start, start + 4, start + 9} {
		if _, ok, err := x.lookup(addr, walkOver(src, &walks)); ok || err != nil {
			t.Errorf("lookup(%d) of an undescribed block = %v, %v", addr, ok, err)
		}
	}
	if walks != 1 {
		t.Fatalf("undescribed blocks walked the chain again: %d walks", walks)
	}
	if sums, segs := x.held(); sums != len(want) || segs != 1 {
		t.Fatalf("index holds %d sums in %d segments, want %d in 1", sums, segs, len(want))
	}
	// The next incarnation is harvested afresh.
	x.drop(2)
	if _, ok, _ := x.lookup(start+1, walkOver(src, &walks)); !ok || walks != 2 {
		t.Fatalf("after drop: found %v after %d walks, want a second walk", ok, walks)
	}
	// A seeded segment that misses is still harvested (the writer seeds the
	// head; what was written before the mount is only on disk) ...
	x.drop(2)
	x.record(start+8, sumEntries(5))
	if _, ok, _ := x.lookup(start+1, walkOver(src, &walks)); !ok || walks != 3 {
		t.Fatalf("miss in a seeded segment: found %v after %d walks", ok, walks)
	}
	// ... unless every chain is known to have been read already.
	x.drop(2)
	x.markAllHarvested()
	if _, ok, _ := x.lookup(start+1, noWalk(t)); ok {
		t.Fatal("found a sum nobody recorded")
	}
}

// A harvest the medium cuts short reports the error to the lookup that ran
// it and keeps what it read — for that lookup too, whichever block it asked
// for; the segment is not walked again.
func TestSumIndexHarvestError(t *testing.T) {
	start := int64(sumTestBase)
	img, want := segmentImage(t, start, 3, 2)
	image := layout.ImageSource(start, img)
	src := func(addr int64) ([]byte, error) {
		if addr == start+4 {
			return nil, disk.ErrMediaRead
		}
		return image(addr)
	}
	walks := 0
	x := newSumIndex(sumTestBase, sumTestBlocks, sumTestSegs)
	if _, ok, err := x.lookup(start+5, walkOver(src, &walks)); ok || !errors.Is(err, disk.ErrMediaRead) {
		t.Fatalf("lookup behind the unreadable summary = %v, %v", ok, err)
	}
	if got, ok, err := x.lookup(start+1, noWalk(t)); got != want[start+1] || !ok || err != nil {
		t.Fatalf("lookup in front of the unreadable summary = %d, %v, %v", got, ok, err)
	}
	x.drop(0)
	if got, ok, err := x.lookup(start+1, walkOver(src, &walks)); got != want[start+1] || !ok || !errors.Is(err, disk.ErrMediaRead) {
		t.Fatalf("harvesting lookup in front of the unreadable summary = %d, %v, %v; want the sum and the error", got, ok, err)
	}
	if _, ok, err := x.lookup(start+5, noWalk(t)); ok || err != nil {
		t.Fatalf("second lookup behind the unreadable summary = %v, %v", ok, err)
	}
}

// TestVerifyUndescribedBlockDegrades: a live block no summary describes is
// damage to the chain itself. lookup's ok == false must reach verifyBlock's
// degrade, not read as "nothing to check".
func TestVerifyUndescribedBlockDegrades(t *testing.T) {
	fs, d := newTestFS(t, 2048, testOptions())
	if err := fs.WriteFile("/f", bytes.Repeat([]byte("x"), 3*layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seg := segsOfFiles(t, fs, []string{"/f"})[0]
	// Forget the segment and wipe its first summary: the harvest finds no
	// chain at all.
	fs.sums.drop(seg)
	if err := d.Poke(fs.segStart(seg), make([]byte, layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	var ce *ErrCorrupted
	if _, err := fs.ReadFile("/f"); !errors.As(err, &ce) {
		t.Fatalf("read of an undescribed block: %v, want *ErrCorrupted", err)
	}
	if !fs.Degraded() || !strings.Contains(fs.DegradedReason(), "does not describe live block") {
		t.Fatalf("degraded %v, reason %q", fs.Degraded(), fs.DegradedReason())
	}
}

// TestSumIndexBounded writes four times the disk's capacity through a small
// file system and checks the bound: never more than one sum per block of
// the segment area, and none for a segment the allocator has released.
func TestSumIndexBounded(t *testing.T) {
	opts := testOptions()
	fs, _ := newTestFS(t, 2048, opts)
	capacity := fs.nsegs * fs.segBytes
	payload := bytes.Repeat([]byte("s"), 8*layout.BlockSize)
	for written := int64(0); written < 4*capacity; written += int64(len(payload)) {
		if err := fs.WriteFile(fmt.Sprintf("/f%d", written/int64(len(payload))%24), payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().SegmentsCleaned == 0 {
		t.Fatal("the workload never cleaned: no segment was released")
	}
	sums, segs := fs.sums.held()
	if limit := int(fs.nsegs * fs.segBlocks); sums > limit || segs > int(fs.nsegs) {
		t.Fatalf("index holds %d sums in %d segments; the disk has %d blocks in %d", sums, segs, limit, fs.nsegs)
	}
	free := 0
	for s := int64(0); s < fs.nsegs; s++ {
		if fs.segs.is(s, segFree) || fs.segs.is(s, segNext) {
			free++
			if fs.sums.segs[s] != nil || fs.sums.harvested[s] {
				t.Errorf("released segment %d still holds sums", s)
			}
		}
	}
	if free == 0 {
		t.Fatal("no free segment to look at")
	}
	mustCheck(t, fs)
}

// The staging queue is bounded the same way. Drained, it holds no written
// entry (their file pointers pin inodes), is rewound to the start
// of its backing array instead of walking off the end into a new one every
// flush, and does not keep an array a cleaning pass grew.
func TestPendingBounded(t *testing.T) {
	fs, _ := newTestFS(t, 2048, testOptions())
	capacity := fs.nsegs * fs.segBytes
	payload := bytes.Repeat([]byte("p"), 8*layout.BlockSize)
	var arrays, quiet int
	var array *stagedBlock
	for written := int64(0); written < 4*capacity; written += int64(len(payload)) {
		if err := fs.WriteFile(fmt.Sprintf("/f%d", written/int64(len(payload))%24), payload); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		whole := fs.pending[:cap(fs.pending)]
		if len(fs.pending) != 0 || len(whole) > 2*int(fs.segBlocks) {
			t.Fatalf("after Sync the queue holds %d blocks in %d slots", len(fs.pending), len(whole))
		}
		for i := range whole {
			if b := &whole[i]; b.data != nil || b.file != nil || b.group != nil {
				t.Fatalf("slot %d of the drained queue still holds a written block", i)
			}
		}
		// Until the first cleaning pass every flush is a few blocks.
		if fs.Stats().SegmentsCleaned == 0 {
			quiet++
			if a := unsafe.SliceData(whole); a != array {
				array, arrays = a, arrays+1
			}
		}
	}
	if fs.Stats().SegmentsCleaned == 0 {
		t.Fatal("the workload never cleaned: no large flush was seen")
	}
	// Doubling from one slot to two segments' worth is seven arrays.
	if quiet < 50 || arrays > 7 {
		t.Fatalf("%d flushes before the first cleaning pass went through %d backing arrays", quiet, arrays)
	}
}

// inoBlockRefs — live inodes per packed inode block — is bounded by the live
// inodes: through rounds of create / overwrite / remove with checkpoints
// and cleaning in between it never holds more keys than there are inodes,
// and it equals what a fresh Mount recomputes from the same image.
func TestInoBlockRefsBounded(t *testing.T) {
	opts := testOptions()
	fs, d := newTestFS(t, 2048, opts)
	payload := bytes.Repeat([]byte("i"), 3*layout.BlockSize)
	for round := 0; round < 12; round++ {
		for i := 0; i < 60; i++ {
			name := fmt.Sprintf("/r%d-f%d", round%3, i)
			if err := fs.WriteFile(name, payload[:(1+i%3)*layout.BlockSize]); err != nil {
				t.Fatal(err)
			}
			if i%7 == round%7 {
				if err := fs.Remove(name); err != nil {
					t.Fatal(err)
				}
			}
		}
		if round%2 == 1 {
			if err := fs.Clean(); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		live := 0
		for _, e := range fs.imap.entries {
			if e.Allocated() {
				live++
			}
		}
		if len(fs.inoBlockRefs) > live {
			t.Fatalf("round %d: %d inode blocks referenced by %d live inodes", round, len(fs.inoBlockRefs), live)
		}
		m, err := Mount(disk.FromSnapshot(d.Snapshot()), opts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !maps.Equal(fs.inoBlockRefs, m.inoBlockRefs) {
			t.Fatalf("round %d: running counts %v, a fresh mount computes %v", round, fs.inoBlockRefs, m.inoBlockRefs)
		}
		if err := m.Unmount(); err != nil {
			t.Fatal(err)
		}
	}
	if fs.Stats().SegmentsCleaned == 0 {
		t.Fatal("the workload never cleaned")
	}
	mustCheck(t, fs)
}

// Readers look sums up (harvesting on a miss) while the writer records
// partial writes and releases segments (run under -race).
func TestSumIndexConcurrent(t *testing.T) {
	x := newSumIndex(sumTestBase, sumTestBlocks, sumTestSegs)
	harvest := func(seg int64, add func(int64, []layout.SummaryEntry)) error {
		add(sumTestBase+seg*sumTestBlocks+1, sumEntries(uint32(seg), uint32(seg)))
		return nil
	}
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := int64(0); i < 2000; i++ {
				addr := sumTestBase + i%(sumTestSegs*sumTestBlocks)
				if sum, ok, err := x.lookup(addr, harvest); err != nil || ok && sum > 100 {
					t.Errorf("lookup(%d) = %d, %v, %v", addr, sum, ok, err)
					return
				}
			}
		}()
	}
	for i := int64(0); i < 2000; i++ {
		seg := i % sumTestSegs
		x.record(sumTestBase+seg*sumTestBlocks+1+i%8, sumEntries(uint32(i%100), uint32(i%100)))
		if i%16 == 0 {
			x.drop(seg)
		}
	}
	readers.Wait()
}
