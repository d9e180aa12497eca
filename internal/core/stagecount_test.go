package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/layout"
)

// stagingScript is Script{seed, 150}'s operations without its syncs and
// checkpoints (so what is staged piles up), with every name component
// lengthened (so dirlog records of very different sizes share a block)
// and, after some writes, a one-block write to the same file far
// enough out to need the single indirect block, the double-indirect top
// and a level-2 block. The script's truncates and removes then release
// pointer blocks again.
func stagingScript(seed int64) []Op {
	rng := rand.New(rand.NewSource(seed))
	long := func(p string) string {
		if p == "" || p == "/" {
			return p
		}
		parts := strings.Split(p, "/")
		for i, c := range parts {
			if c != "" {
				parts[i] = c + "-" + strings.Repeat("n", (len(c)*53+i*31)%200)
			}
		}
		return strings.Join(parts, "/")
	}
	far := []uint32{layout.NumDirect + 3, firstDIndirect + 5, firstDIndirect + 2*layout.PointersPerBlock + 7}
	var ops []Op
	for _, op := range (Script{Seed: seed, N: 150}).Ops() {
		if op.Kind == OpSync || op.Kind == OpCheckpoint {
			continue
		}
		op.Path, op.Path2 = long(op.Path), long(op.Path2)
		ops = append(ops, op)
		if op.Kind == OpWrite && rng.Intn(4) == 0 {
			bn := far[rng.Intn(len(far))]
			ops = append(ops, Op{Kind: OpWrite, Path: op.Path, Off: int64(bn) * layout.BlockSize, Data: nonZero(int(bn), 100)})
		}
	}
	return ops
}

// TestStagedBlocksIsWhatFlushWrites replays every prefix of random scripts
// (creates and mkdirs under long names, removes, renames, partial writes,
// writes that need pointer blocks) and after each one checks that
// stagedBlocks, the count both the buffer-full check and the admission
// gate go by, is exactly the number of blocks, summaries aside, that the
// next flush writes.
func TestStagedBlocksIsWhatFlushWrites(t *testing.T) {
	opts := testOptions()
	opts.WriteBufferBlocks = 128 // a few buffer-full flushes per script
	kinds := 0                   // kinds of block seen in a flush
	for seed := int64(1); seed <= 3; seed++ {
		ops := stagingScript(seed)
		for n := 1; n <= len(ops); n++ {
			fs, _ := newTestFS(t, 2048, opts)
			for _, op := range ops[:n] {
				if err := ApplyOp(fs, op); err != nil {
					t.Fatalf("seed %d: %v: %v", seed, op, err)
				}
			}
			fs.mu.Lock()
			want := fs.stagedBlocks()
			before := fs.stats
			err := fs.flushLog()
			got := (fs.stats.NewDataBytes - before.NewDataBytes) / layout.BlockSize
			for k, b := range fs.stats.LogBytesByKind {
				if b != before.LogBytesByKind[k] {
					kinds |= 1 << k
				}
			}
			fs.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			if got != int64(want) {
				t.Fatalf("seed %d, after %v (op %d): stagedBlocks %d, the flush wrote %d blocks besides summaries",
					seed, ops[n-1], n, want, got)
			}
		}
	}
	for _, k := range []layout.BlockKind{layout.KindData, layout.KindIndirect, layout.KindInode, layout.KindDirLog} {
		if kinds&(1<<k) == 0 {
			t.Errorf("no flush wrote a %v block", k)
		}
	}
}

// TestFlushAt checks flushAt without a device, against a replay of how
// flushPending packs blocks into partial writes: over every head offset,
// three write buffers and two segment sizes it never exceeds
// WriteBufferBlocks-1, and it is the largest count whose flush ends at a
// segment boundary whenever one is in reach.
func TestFlushAt(t *testing.T) {
	// endsAtBoundary replays flushPending writing n blocks from head offset
	// off: partial writes of a summary and at most MaxSummaryEntries blocks,
	// each in the head segment while it has room for one.
	endsAtBoundary := func(segBlocks, off, n int64) bool {
		free := segBlocks - off
		for n > 0 {
			if free < 2 {
				free = segBlocks
			}
			k := min(n, free-1, layout.MaxSummaryEntries)
			n, free = n-k, free-k-1
		}
		return free == 0
	}
	for _, segBlocks := range []int64{64, 128} {
		for _, wbb := range []int{16, 128, 256} {
			for off := int64(0); off <= segBlocks; off++ {
				fs := &FS{segBlocks: segBlocks, opts: Options{WriteBufferBlocks: wbb}, segs: &segAlloc{headOff: off}}
				want := wbb - 1 // no boundary in reach
				for n := wbb - 1; n >= 1; n-- {
					if endsAtBoundary(segBlocks, off, int64(n)) {
						want = n
						break
					}
				}
				if got := fs.flushAt(); got != want || got > wbb-1 {
					t.Errorf("segment %d blocks, write buffer %d, head at %d: flushAt %d, want %d", segBlocks, wbb, off, got, want)
				}
			}
		}
	}
}

// TestBufferFullFlushFillsSegment creates a burst of small files in random
// directories (Figure 8's create phase) after a Sync has left the head
// segment part-full, and checks that every flush the full write buffer
// triggers leaves the head at a segment boundary, writes with its summary
// at most WriteBufferBlocks blocks, and — when it starts at a boundary —
// at least WriteBufferBlocks-8: one segment's worth of what it actually
// writes, not of dirty data blocks alone.
func TestBufferFullFlushFillsSegment(t *testing.T) {
	opts := testOptions()
	opts.SegmentBlocks = 128
	opts.MaxInodes = 8192
	fs, _ := newTestFS(t, 16384, opts)
	const dirs = 100
	for d := 0; d < dirs; d++ {
		if err := fs.Mkdir(fmt.Sprintf("/d%02d", d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if fs.segs.headOff == 0 || fs.segs.headOff == fs.segBlocks {
		t.Fatalf("the Sync left the head at offset %d, want it part-full", fs.segs.headOff)
	}
	rng := rand.New(rand.NewSource(1))
	wbb := int64(fs.opts.WriteBufferBlocks)
	flushes, full := 0, 0
	for i := 0; i < 4000; i++ {
		before := fs.Stats()
		atBoundary := fs.segs.headOff == fs.segBlocks
		if err := fs.WriteFile(fmt.Sprintf("/d%02d/f%04d", rng.Intn(dirs), i), nonZero(i, 1024)); err != nil {
			t.Fatal(err)
		}
		n := (fs.Stats().NewDataBytes - before.NewDataBytes) / layout.BlockSize
		if n == 0 {
			continue
		}
		flushes++
		if fs.segs.headOff != fs.segBlocks {
			t.Errorf("create %d: a buffer-full flush of %d blocks left the head at offset %d of %d", i, n, fs.segs.headOff, fs.segBlocks)
		}
		if n+1 > wbb {
			t.Errorf("create %d: a buffer-full flush wrote %d blocks and a summary, want at most %d", i, n, wbb-1)
		}
		if atBoundary {
			full++
			if n+1 < wbb-8 {
				t.Errorf("create %d: a buffer-full flush from a segment boundary wrote %d blocks and a summary, want %d-%d", i, n, wbb-9, wbb-1)
			}
		}
	}
	if flushes < 20 || full != flushes-1 {
		t.Fatalf("%d buffer-full flushes for 4000 one-block files, %d from a segment boundary", flushes, full)
	}
}

// TestRemoveBurstBatches removes 1000 files spread over 10 directories
// and checks that the deletes are batched: their dirlog records, the
// directory blocks and the directory inodes fit one or two flushes, not
// one flush per few hundred records.
func TestRemoveBurstBatches(t *testing.T) {
	opts := testOptions()
	opts.SegmentBlocks = 128
	fs, _ := newTestFS(t, 8192, opts)
	var paths []string
	for d := 0; d < 10; d++ {
		if err := fs.Mkdir(fmt.Sprintf("/d%d", d)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		p := fmt.Sprintf("/d%d/file%04d", i%10, i)
		if err := fs.WriteFile(p, nonZero(i, 1024)); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	flushes := 0
	for _, p := range paths {
		before := fs.Stats().PartialWrites
		if err := fs.Remove(p); err != nil {
			t.Fatal(err)
		}
		if fs.Stats().PartialWrites != before {
			flushes++
		}
	}
	if flushes > 2 {
		t.Fatalf("removing 1000 files flushed %d times before the Sync, want at most 2", flushes)
	}
	before := fs.Stats().PartialWrites
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().PartialWrites == before {
		t.Fatal("the Sync after the removes wrote nothing")
	}
	mustCheck(t, fs)
}
