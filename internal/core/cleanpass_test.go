package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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
	segs := make([]int64, 0, len(set))
	for seg := range set {
		segs = append(segs, seg)
	}
	slices.Sort(segs)
	return segs
}

// TestCleanPassSortSpansSegments builds several victim segments whose live
// data blocks have interleaved ages, runs exactly one pass over them and
// reads the cleaner's output back from the log. The age sort is over the
// pass: ages must be non-decreasing across the whole output, not merely
// within each victim's run (which is what a per-segment sort produces, and
// what this test fails on). NoAgeSort keeps collection order — candidate
// order, then log order. An operation's tick adds 1 to the clock set
// before it.
func TestCleanPassSortSpansSegments(t *testing.T) {
	const nfiles = 48
	for _, mode := range []string{"agesort", "noagesort"} {
		t.Run(mode, func(t *testing.T) {
			opts := testOptions()
			opts.NoAgeSort = mode == "noagesort"
			fs, _ := newTestFS(t, 2048, opts)

			// One-block files whose ages are a permutation of the file
			// index, so every segment holds a mix of old and young blocks.
			content := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, layout.BlockSize) }
			var paths []string
			for i := 0; i < nfiles; i++ {
				fs.ticks.Store(1000 + uint64(i*7%nfiles)*10 - 1)
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
			// what tells the per-block key from the file's single mtime.
			for i := 0; i < nfiles; i += 4 {
				fs.ticks.Store(5000 + uint64(i*11%nfiles)*10 - 1)
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
			fs.ticks.Store(9000 - 1)
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

// TestCleanPassRejectsUndercountedUsage: a pass carves its copies from one
// buffer sized by its victims' live bytes, so a usage table that counts
// less live data than the victims hold, which only corruption makes, fails
// the pass with ErrCorrupt before it stages or retires anything, instead of
// overrunning the buffer.
func TestCleanPassRejectsUndercountedUsage(t *testing.T) {
	fs := cleanPassFixture(t, 0.5, 1, 4)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	cands := fs.selectCandidates()
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range cands {
		if e := &fs.usage.entries[c.seg]; e.LiveBytes > layout.BlockSize {
			e.LiveBytes = layout.BlockSize
		}
	}
	fs.inCleaner = true
	defer func() { fs.inCleaner = false }()
	if err := fs.cleanPass(cands); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("cleanPass = %v, want ErrCorrupt", err)
	}
	if p := fs.segs.pending(); len(p) != 0 || len(fs.pending) != 0 || fs.Degraded() {
		t.Fatalf("the failed pass retired %v, staged %d blocks, degraded %v", p, len(fs.pending), fs.Degraded())
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
	opts := Options{SegmentBlocks: 128, MaxInodes: 1 << 14, CleanBatch: batch}
	fs, err := Format(writtenDisk(tb, 16384), opts)
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

// writtenDisk returns a device of nblocks every one of which has been
// written once: the simulated device allocates a block's memory on its
// first write, which an allocation count of the file system must not see.
func writtenDisk(tb testing.TB, nblocks int64) *disk.Disk {
	tb.Helper()
	d := disk.MustNew(disk.DefaultGeometry(nblocks))
	zero := make([]byte, 128*layout.BlockSize)
	for a := int64(0); a < nblocks; a += 128 {
		if err := d.Write(a, zero[:min(nblocks-a, 128)*layout.BlockSize]); err != nil {
			tb.Fatal(err)
		}
	}
	return d
}

// timedCleanPass selects one pass worth of candidates, runs it, and
// returns the live data blocks it copied, the time, and the heap
// allocations and bytes it took.
func timedCleanPass(tb testing.TB, fs *FS) (liveBlocks int64, elapsed time.Duration, mallocs, allocBytes uint64) {
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
	return liveBlocks, elapsed, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
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
				n, dt, m, _ := timedCleanPass(b, fs)
				blocks, elapsed, mallocs = blocks+n, elapsed+dt, mallocs+m
			}
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(blocks), "ns/live-block")
			b.ReportMetric(float64(mallocs)/float64(blocks), "allocs/live-block")
			b.ReportMetric(0, "ns/op") // set-up dominates the loop: only the timed passes mean anything
		})
	}
}

// TestAllocsCleanPass pins the heap allocations of a warm cleaning pass
// per live data block it copies, in number and in bytes. A pass stages the
// device's own blocks (disk.ReadViews), and writeBatch encodes each partial
// write's summary and metadata into one buffer of its own, so what is left
// is per pass and per partial write: 0.04 allocations and 503 bytes per
// live block for eight victims, 0.03 and 475 for the default 24. While a
// pass copied its live blocks into one buffer of its own, that buffer was
// one allocation but about 5 000 bytes per live block; while each copy was
// a bufpool block, and each inode block cost a slice, two closures and a
// fresh block, a pass allocated 0.45 and 0.96 times per live block. The
// count bounds are 0.07 and 0.04 plus 10 %. The byte bound is a quarter of
// a block: a copy of each live block costs a whole one, and the race
// detector adds about a quarter to what a pass allocates (624 and 592).
func TestAllocsCleanPass(t *testing.T) {
	const maxBytes = layout.BlockSize / 4 // per live block
	for _, c := range []struct {
		batch           int
		maxPerLiveBlock float64
	}{{8, 0.08}, {24, 0.046}} {
		fs := cleanPassFixture(t, 0.5, 2, c.batch)
		timedCleanPass(t, fs) // warm: fills the pools
		blocks, _, mallocs, bytes := timedCleanPass(t, fs)
		per, perBytes := float64(mallocs)/float64(blocks), float64(bytes)/float64(blocks)
		t.Logf("%d victims: %d allocations, %d bytes for %d live blocks: %.2f and %.0f B per live block",
			c.batch, mallocs, bytes, blocks, per, perBytes)
		if per > c.maxPerLiveBlock {
			t.Errorf("warm %d-victim clean pass allocates %.2f times per live block, want at most %.2f",
				c.batch, per, c.maxPerLiveBlock)
		}
		if perBytes > maxBytes {
			t.Errorf("warm %d-victim clean pass allocates %.0f bytes per live block, want at most %d",
				c.batch, perBytes, maxBytes)
		}
	}
}

var cleanReadModes = []CleanReadMode{CleanReadPlanned, CleanReadLive, CleanReadWhole}

// cleanOnce runs one cleaning pass over the candidates selection returns
// and returns them.
func cleanOnce(t *testing.T, fs *FS) []candidate {
	t.Helper()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	cands := fs.selectCandidates()
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	fs.inCleaner = true
	defer func() { fs.inCleaner = false }()
	if err := fs.cleanPass(cands); err != nil {
		t.Fatal(err)
	}
	return cands
}

// A cleaning pass holds the device's own blocks as views, and a snapshot
// shares them with the device: a snapshot taken before three passes (and
// the checkpoint and writes that reuse their victims) must read back byte
// for byte as it was, or some code wrote into a view.
func TestCleanerWritesNoView(t *testing.T) {
	for _, mode := range cleanReadModes {
		fs := cleanPassFixture(t, 0.5, 3, 4)
		fs.opts.CleanRead = mode
		d := fs.dev
		image := func(d *disk.Disk) [][]byte {
			out := make([][]byte, d.NumBlocks())
			for a := range out {
				out[a], _ = d.Peek(int64(a))
			}
			return out
		}
		want, snap := image(d), d.Snapshot()
		for i := 0; i < 3; i++ {
			cleanOnce(t, fs)
		}
		if err := fs.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			if err := fs.WriteFile(fmt.Sprintf("/w%04d", i), nonZero(i, layout.BlockSize)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		for a, b := range image(disk.FromSnapshot(snap)) {
			if !bytes.Equal(b, want[a]) {
				t.Fatalf("mode %d: block %d of the snapshot changed", mode, a)
			}
		}
	}
}

// After a successful pass no block of its victims is still lent: writing
// each back as it stands allocates nothing, where a lent block's write
// would allocate the device a fresh buffer. Dropping either release, of
// the views a victim's walk did not stage or of the staged ones after the
// pass's flush, fails it.
func TestCleanPassReleasesItsViews(t *testing.T) {
	for _, mode := range cleanReadModes {
		fs := cleanPassFixture(t, 0.5, 1, 4)
		fs.opts.CleanRead = mode
		var addrs []int64
		var blocks [][]byte
		for _, c := range cleanOnce(t, fs) {
			for a := fs.segStart(c.seg); a < fs.segStart(c.seg)+fs.segBlocks; a++ {
				b, err := fs.dev.Peek(a)
				if err != nil {
					t.Fatal(err)
				}
				addrs, blocks = append(addrs, a), append(blocks, b)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, a := range addrs {
			if err := fs.dev.Write(a, blocks[i]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("mode %d: rewriting the %d blocks of the pass's victims allocated %d times: views still lent",
				mode, len(addrs), n)
		}
	}
}

// TestCleanerTakesEmptySegmentsFirst builds the case cost-benefit's score
// alone gets wrong: a few segments of cold files, almost all deleted long
// ago, beside young segments of hot files that were all overwritten since.
// Formula (1) ranks the old nearly empty segment above the young empty
// one, but the empty one is never read, so its cost is nothing: while an
// empty candidate exists, a cleaning pass reads nothing.
func TestCleanerTakesEmptySegmentsFirst(t *testing.T) {
	fs, _ := newTestFS(t, 2048, testOptions())
	write := func(p string, tag int) {
		t.Helper()
		if err := fs.WriteFile(p, nonZero(tag, layout.BlockSize)); err != nil {
			t.Fatal(err)
		}
	}
	sync := func() {
		t.Helper()
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		write(fmt.Sprintf("/cold%03d", i), i)
	}
	sync()
	for i := 0; i < 300; i++ {
		if i%6 != 0 {
			if err := fs.Remove(fmt.Sprintf("/cold%03d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sync()
	fs.ticks.Add(1 << 20) // the cold segments age
	for r := 0; r < 12; r++ {
		for i := 0; i < 30; i++ {
			write(fmt.Sprintf("/hot%02d", i), r)
		}
	}
	sync()

	// The case: at least a batch of empty candidates, and a live one that
	// formula (1) scores above all of them.
	fs.mu.Lock()
	var empty int
	var bestEmpty, bestLive float64
	for s := int64(0); s < fs.nsegs; s++ {
		e := fs.usage.get(s)
		if e.Flags&layout.SegFlagDirty == 0 || !fs.segs.cleanable(s) || s == fs.segs.head {
			continue
		}
		u := fs.usage.utilization(s)
		score := (1 - u) * float64(1+fs.ticks.Load()-e.LastWrite) / (1 + u)
		if e.LiveBytes == 0 {
			empty++
			bestEmpty = max(bestEmpty, score)
		} else if u < 0.999 {
			bestLive = max(bestLive, score)
		}
	}
	fs.mu.Unlock()
	if empty < fs.opts.CleanBatch || bestLive <= bestEmpty {
		t.Fatalf("%d empty candidates scoring up to %.0f, live ones up to %.0f: not the case under test",
			empty, bestEmpty, bestLive)
	}

	before := fs.Stats()
	if err := fs.CleanIdle(fs.opts.CleanBatch); err != nil {
		t.Fatal(err)
	}
	after := fs.Stats()
	cleaned := after.SegmentsCleaned - before.SegmentsCleaned
	if cleaned == 0 {
		t.Fatal("the pass cleaned nothing")
	}
	if read := after.CleanerReadBytes - before.CleanerReadBytes; read != 0 ||
		after.SegmentsCleanedEmpty-before.SegmentsCleanedEmpty != cleaned {
		t.Fatalf("with %d empty candidates the pass cleaned %d segments, %d of them empty, and read %d bytes",
			empty, cleaned, after.SegmentsCleanedEmpty-before.SegmentsCleanedEmpty, read)
	}
	mustCheck(t, fs)
}
