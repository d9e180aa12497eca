package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/layout"
)

// passBlock is one KindData block as a cleaning pass sees or writes it.
type passBlock struct {
	inum, bn uint32
	age      uint64
}

// walkData visits, in log order, the KindData entries (and their
// addresses) of seg's summaries whose WriteSeq is at least fromSeq.
func walkData(t *testing.T, fs *FS, seg int64, fromSeq uint64, visit func(writeSeq uint64, e layout.SummaryEntry, addr int64)) {
	t.Helper()
	s := layout.NewWalkScratch()
	w := fs.walkSegment(seg, s)
	for w.Next() {
		if s.WriteSeq < fromSeq {
			continue
		}
		for i, e := range s.Entries {
			if e.Kind == layout.KindData {
				visit(s.WriteSeq, e, w.DataAddr()+int64(i))
			}
		}
	}
}

// liveDataOf lists the live data blocks of the given segments, segment by
// segment, each in log order: the order the cleaner collects them in.
func liveDataOf(t *testing.T, fs *FS, segs []int64) []passBlock {
	t.Helper()
	var out []passBlock
	for _, seg := range segs {
		walkData(t, fs, seg, 0, func(_ uint64, e layout.SummaryEntry, addr int64) {
			live, err := fs.blockLive(e, addr)
			if err != nil {
				t.Fatal(err)
			}
			if live {
				out = append(out, passBlock{e.Inum, e.BlockNo, e.Age})
			}
		})
	}
	return out
}

// dataWrittenSince lists the data blocks of every partial write with
// WriteSeq >= fromSeq, in the order they were written.
func dataWrittenSince(t *testing.T, fs *FS, fromSeq uint64) []passBlock {
	t.Helper()
	type rec struct {
		seq uint64
		passBlock
	}
	var recs []rec
	for seg := int64(0); seg < fs.nsegs; seg++ {
		walkData(t, fs, seg, fromSeq, func(seq uint64, e layout.SummaryEntry, _ int64) {
			recs = append(recs, rec{seq, passBlock{e.Inum, e.BlockNo, e.Age}})
		})
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	out := make([]passBlock, len(recs))
	for i, r := range recs {
		out[i] = r.passBlock
	}
	return out
}

// runPass runs one cleaning pass over the given segments, as cleanStep
// would, and returns its error.
func runPass(fs *FS, segs []int64) error {
	cands := make([]candidate, len(segs))
	for i, s := range segs {
		cands[i] = candidate{seg: s, u: fs.usage.utilization(s)}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.inCleaner = true
	defer func() { fs.inCleaner = false }()
	return fs.cleanPass(cands)
}

// pushHeadPast writes filler until the log head has left every segment in
// segs (the head is never a cleaning candidate).
func pushHeadPast(t *testing.T, fs *FS, segs []int64) {
	t.Helper()
	filler := bytes.Repeat([]byte("F"), 4*layout.BlockSize)
	for i := 0; ; i++ {
		inSegs := false
		for _, s := range segs {
			inSegs = inSegs || s == fs.segs.head
		}
		if !inSegs {
			return
		}
		if err := fs.WriteFile(fmt.Sprintf("/filler%d", i), filler); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
}

// segsOfFiles returns, ascending, the segments holding the data blocks of
// the named files.
func segsOfFiles(t *testing.T, fs *FS, paths []string) []int64 {
	t.Helper()
	set := map[int64]bool{}
	for _, p := range paths {
		st, err := fs.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		for bn := uint32(0); int64(bn)*layout.BlockSize < st.Size; bn++ {
			_, addr := dataBlockAddr(t, fs, p, bn)
			set[fs.segOf(addr)] = true
		}
	}
	return sortedKeys(set)
}

// TestCleanPassSortSpansSegments builds several victim segments whose live
// data blocks have interleaved ages, runs exactly one pass over them and
// reads the cleaner's output back from the log. The age sort is over the
// pass: ages must be non-decreasing across the whole output, not merely
// within each victim's run (which is what a per-segment sort produces, and
// what this test fails on). NoAgeSort keeps collection order — candidate
// order, then log order — and CoarseAgeSort keys (and stamps) each block
// with its file's mtime.
func TestCleanPassSortSpansSegments(t *testing.T) {
	const nfiles = 48
	for _, mode := range []string{"agesort", "noagesort", "coarse"} {
		t.Run(mode, func(t *testing.T) {
			var now uint64 = 1
			opts := testOptions()
			opts.Clock = func() uint64 { return now }
			opts.NoGroupCommit = true
			opts.NoAgeSort = mode == "noagesort"
			opts.CoarseAgeSort = mode == "coarse"
			fs, _ := newTestFS(t, 2048, opts)

			// One-block files whose ages are a permutation of the file
			// index, so every segment holds a mix of old and young blocks.
			content := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, layout.BlockSize) }
			var paths []string
			for i := 0; i < nfiles; i++ {
				now = 1000 + uint64(i*7%nfiles)*10
				p := fmt.Sprintf("/f%02d", i)
				if err := fs.WriteFile(p, content(i)); err != nil {
					t.Fatal(err)
				}
				paths = append(paths, p)
				if i%8 == 7 {
					if err := fs.Sync(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// A later second block on every fourth file: its first block
			// keeps its own age while the file's mtime moves on, which is
			// what tells the per-block key from the coarse one.
			for i := 0; i < nfiles; i += 4 {
				now = 5000 + uint64(i*11%nfiles)*10
				if _, err := fs.WriteAt(paths[i], layout.BlockSize, content(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			// Dead blocks among the live ones.
			var kept []string
			for i, p := range paths {
				if i%5 == 1 {
					if err := fs.Remove(p); err != nil {
						t.Fatal(err)
					}
					continue
				}
				kept = append(kept, p)
			}
			now = 9000
			if err := fs.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			victims := segsOfFiles(t, fs, kept)
			if len(victims) < 2 {
				t.Fatalf("set-up produced %d victim segments, want at least 2", len(victims))
			}
			pushHeadPast(t, fs, victims)

			// What the pass must write: the victims' live data in
			// collection order, stably sorted by the mode's key.
			want := liveDataOf(t, fs, victims)
			if mode == "coarse" {
				for i := range want {
					mi, err := fs.loadInode(want[i].inum)
					if err != nil {
						t.Fatal(err)
					}
					want[i].age = mi.ino.Mtime
				}
			}
			if sort.SliceIsSorted(want, func(i, j int) bool { return want[i].age < want[j].age }) {
				t.Fatal("set-up is not interleaved: collection order is already age order")
			}
			if mode != "noagesort" {
				sort.SliceStable(want, func(i, j int) bool { return want[i].age < want[j].age })
			}

			seq := fs.writeSeq
			if err := runPass(fs, victims); err != nil {
				t.Fatal(err)
			}
			got := dataWrittenSince(t, fs, seq)
			if mode != "noagesort" {
				for i := 1; i < len(got); i++ {
					if got[i].age < got[i-1].age {
						t.Errorf("output block %d (inum %d bn %d) has age %d after age %d: the sort did not span the pass's %d segments",
							i, got[i].inum, got[i].bn, got[i].age, got[i-1].age, len(victims))
						break
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("pass wrote %d data blocks, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("output block %d = %+v, want %+v", i, got[i], want[i])
				}
			}

			if err := fs.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for _, s := range victims {
				if fs.usage.get(s).Flags&layout.SegFlagDirty != 0 {
					t.Errorf("victim segment %d was not released", s)
				}
			}
			mustCheck(t, fs)
			for i, p := range paths {
				if i%5 == 1 {
					continue
				}
				data, err := fs.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data[:layout.BlockSize], content(i)) ||
					(i%4 == 0 && !bytes.Equal(data[layout.BlockSize:], content(i+1))) {
					t.Fatalf("%s: wrong contents after the pass", p)
				}
			}
		})
	}
}

// TestCleanPassErrorReleasesNothing is the regression test of the
// retire-after-staging rule (segAlloc.retire's contract). A hard (non-media) error out of the
// collector of the pass's second candidate fails the operation while the
// first candidate's live blocks sit, unstaged, in the pass's list. The
// next checkpoint marks every queued segment clean unconditionally, so the
// first candidate must not have been queued: nothing may be lost.
func TestCleanPassErrorReleasesNothing(t *testing.T) {
	opts := testOptions()
	opts.NoGroupCommit = true
	fs, d := newTestFS(t, 2048, opts)

	content := func(i int) []byte { return bytes.Repeat([]byte{byte('A' + i%26)}, layout.BlockSize) }
	const nfiles = 96
	for i := 0; i < nfiles; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/f%02d", i), content(i)); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < nfiles; i += 2 {
		if err := fs.Remove(fmt.Sprintf("/f%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// The pass CleanIdle will run: selection is deterministic.
	fs.mu.Lock()
	cands := fs.selectCandidates()
	fs.mu.Unlock()
	if len(cands) < 2 {
		t.Fatalf("%d candidates, want at least 2", len(cands))
	}
	first, second := cands[0].seg, cands[1].seg
	liveBefore := fs.usage.get(first).LiveBytes
	if liveBefore == 0 || fs.usage.get(second).LiveBytes == 0 {
		t.Fatalf("candidates %d and %d must both hold live data (%d, %d bytes)",
			first, second, liveBefore, fs.usage.get(second).LiveBytes)
	}

	// Re-encode the second candidate's first summary with an entry of an
	// unknown kind: it decodes and its data checksum still holds, so the
	// collector reaches blockLive, which reports ErrCorrupt.
	sumAddr := fs.segStart(second)
	blk, err := d.Peek(sumAddr)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := layout.DecodeSummary(blk)
	if err != nil {
		t.Fatal(err)
	}
	sum.Entries[0].Kind = 99
	blk, err = sum.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Poke(sumAddr, blk); err != nil {
		t.Fatal(err)
	}

	if err := fs.CleanIdle(len(cands)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("CleanIdle = %v, want ErrCorrupt from the second candidate", err)
	}
	if p := fs.segs.pending(); len(p) != 0 {
		t.Errorf("the failed pass left segments %v pending release", p)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint released whatever the failed pass queued. The first
	// candidate may legitimately be among that (an implementation that
	// stages what it had collected before giving up) or not (one that
	// queues nothing), but no file may now point into a clean segment.
	for i := 1; i < nfiles; i += 2 {
		p := fmt.Sprintf("/f%02d", i)
		for _, seg := range segsOfFiles(t, fs, []string{p}) {
			if fs.segs.is(seg, segFree) || fs.usage.get(seg).Flags&layout.SegFlagDirty == 0 {
				t.Errorf("%s lives in segment %d, which the checkpoint released (first candidate %d held %d live bytes)",
					p, seg, first, liveBefore)
			}
		}
	}
	mustCheck(t, fs)
	for i := 1; i < nfiles; i += 2 {
		p := fmt.Sprintf("/f%02d", i)
		data, err := fs.ReadFile(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !bytes.Equal(data, content(i)) {
			t.Fatalf("%s: wrong contents", p)
		}
	}
}

// A pass and the checkpoint that releases it must both fit in the space
// free when the pass is selected — evacuated segments come back only after
// that checkpoint — and every live block a pass moves can add one more
// inode-map block to that checkpoint. With 64 KB segments and one-block
// files the inode map is most of the bill: a few-tens-of-victims pass
// budgeted only for the map blocks already dirty used the room its
// checkpoint needed and the file system ran out of space 70 % full.
func TestCleanPassLeavesRoomForItsCheckpoint(t *testing.T) {
	fs, _ := newTestFS(t, 20000, Options{SegmentBlocks: 16})
	nfiles := int(0.7 * float64(fs.nsegs*fs.segBlocks))
	path := func(i int) string { return fmt.Sprintf("/d%02d/f%05d", i%64, i) }
	for i := 0; i < 64; i++ {
		if err := fs.Mkdir(fmt.Sprintf("/d%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	payload := make([]byte, layout.BlockSize)
	for i := 0; i < nfiles; i++ {
		if err := fs.WriteFile(path(i), payload); err != nil {
			t.Fatalf("fill, file %d of %d: %v", i, nfiles, err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 7000; n++ {
		if err := fs.WriteFile(path(rng.Intn(nfiles)), payload); err != nil {
			t.Fatalf("overwrite %d: %v (segments %+v)", n, err, fs.SegmentCounts())
		}
	}
	if st := fs.Stats(); st.CleaningPasses < 100 {
		t.Fatalf("only %d cleaning passes: the workload did not press the cleaner", st.CleaningPasses)
	}
	mustCheck(t, fs)
}

// cleanPassFixture builds a file system with npasses × batch victim
// segments at utilization u (one-block files, a fraction 1-u of them
// removed) and the log head moved past them. CleanBatch is spelled, not
// defaulted, so the pins below measure the pass and not withDefaults.
func cleanPassFixture(tb testing.TB, u float64, npasses, batch int) *FS {
	tb.Helper()
	opts := Options{SegmentBlocks: 128, MaxInodes: 1 << 14, NoGroupCommit: true, CleanBatch: batch}
	const nblocks = 16384
	d := disk.MustNew(disk.DefaultGeometry(nblocks))
	// The simulated device allocates a block's memory on its first write;
	// write every block once so that is not counted as the cleaner's.
	zero := make([]byte, 128*layout.BlockSize)
	for a := int64(0); a < nblocks; a += 128 {
		if err := d.Write(a, zero); err != nil {
			tb.Fatal(err)
		}
	}
	fs, err := Format(d, opts)
	if err != nil {
		tb.Fatal(err)
	}
	payload := bytes.Repeat([]byte("v"), layout.BlockSize)
	nfiles := npasses * batch * int(fs.segBlocks)
	for i := 0; i < nfiles; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/v%05d", i), payload); err != nil {
			tb.Fatal(err)
		}
	}
	// Keep every file whose index crosses a multiple of 1/u: live blocks
	// spread evenly over every victim.
	for i := 0; i < nfiles; i++ {
		if int(float64(i+1)*u) == int(float64(i)*u) {
			if err := fs.Remove(fmt.Sprintf("/v%05d", i)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := fs.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	return fs
}

// timedCleanPass selects one pass worth of candidates, runs it, and
// returns the live data blocks it copied, the time and the heap
// allocations it took.
func timedCleanPass(tb testing.TB, fs *FS) (liveBlocks int64, elapsed time.Duration, mallocs uint64) {
	tb.Helper()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	cands := fs.selectCandidates()
	if len(cands) == 0 {
		tb.Fatal("no candidates")
	}
	dataBefore := fs.stats.LogBytesByKind[layout.KindData]
	fs.inCleaner = true
	defer func() { fs.inCleaner = false }()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fs.cleanPass(cands)
	elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatal(err)
	}
	liveBlocks = (fs.stats.LogBytesByKind[layout.KindData] - dataBefore) / layout.BlockSize
	if liveBlocks == 0 {
		tb.Fatal("the pass copied no data")
	}
	return liveBlocks, elapsed, after.Mallocs - before.Mallocs
}

// BenchmarkCleanPass times one cleaning pass (eight victims: collect,
// sort, stage, flush) over victims at a low and a high utilization, per
// live data block copied: the cleaner's row of the per-layer cost
// ledger. Each iteration cleans fresh victims of the same file system; the
// first pass, which warms the pools, is not timed.
func BenchmarkCleanPass(b *testing.B) {
	for _, u := range []float64{0.2, 0.8} {
		b.Run(fmt.Sprintf("u=%.1f", u), func(b *testing.B) {
			const passesPerFS = 4
			var fs *FS
			var blocks int64
			var elapsed time.Duration
			var mallocs uint64
			for i := 0; i < b.N; i++ {
				if i%(passesPerFS-1) == 0 {
					fs = cleanPassFixture(b, u, passesPerFS, 8)
					timedCleanPass(b, fs) // warm
				}
				n, dt, m := timedCleanPass(b, fs)
				blocks, elapsed, mallocs = blocks+n, elapsed+dt, mallocs+m
			}
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(blocks), "ns/live-block")
			b.ReportMetric(float64(mallocs)/float64(blocks), "allocs/live-block")
			b.ReportMetric(0, "ns/op") // set-up dominates the loop: only the timed passes mean anything
		})
	}
}

// TestAllocsCleanPass pins the heap allocations of a warm cleaning pass
// per live data block it copies, measured at 1.50 for eight victims (the
// per-segment pipeline with its heap-allocated liveCopy, copied capture
// and full inode-block decode took 4.46 on the same victims). What remains
// per one-block file is the placement closure of its staged copy, block
// buffers beyond what the pool holds (a pass keeps every copy until its
// one flush) and its share of the flush that rewrites the inodes the pass
// dirtied; collecting and sorting add nothing per block (the pass list
// is one allocation). The default 24-victim pass reads 2.01: bpool holds 384
// buffers and the pass keeps ≈ 1 400 copies until its one flush, so about
// a thousand of them are allocated, half a buffer per block more than
// the eight-victim pass draws. The pool stays as it is: idle buffers
// are resident memory on every workload, busy or not.
func TestAllocsCleanPass(t *testing.T) {
	for _, c := range []struct {
		batch           int
		maxPerLiveBlock float64
	}{{8, 1.6}, {24, 2.1}} {
		fs := cleanPassFixture(t, 0.5, 2, c.batch)
		timedCleanPass(t, fs) // warm: fills the pools
		blocks, _, mallocs := timedCleanPass(t, fs)
		per := float64(mallocs) / float64(blocks)
		t.Logf("%d victims: %d allocations for %d live blocks: %.2f per live block", c.batch, mallocs, blocks, per)
		if per > c.maxPerLiveBlock {
			t.Errorf("warm %d-victim clean pass allocates %.2f times per live block, want at most %.2f",
				c.batch, per, c.maxPerLiveBlock)
		}
	}
}
