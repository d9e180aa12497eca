package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// This file pins when the write path reads (DESIGN.md §3c "When the write
// path reads"): only when bytes of the stored block survive the write.

// nonZero returns n bytes, none of them zero, that depend on tag: a
// pooled buffer that held them and was not cleared shows up as stray
// non-zero bytes past an end of file.
func nonZero(tag, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(1 + (tag*31+i*7)%255)
	}
	return b
}

// remountVerify syncs, remounts from the device and compares the result
// with the model; it returns the new mount.
func remountVerify(t *testing.T, fs *FS, d *disk.Disk, m *Model) *FS {
	t.Helper()
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	opts := fs.Options()
	opts.Tracer = nil
	fs, err := Mount(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustVerify(t, m, fs)
	mustCheck(t, fs)
	return fs
}

// stepper returns a function that applies one operation to the current
// mount and to the model.
func stepper(t *testing.T, fs **FS, m *Model) func(Op) {
	return func(op Op) {
		t.Helper()
		if err := ApplyOp(*fs, op); err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		m.Apply(op)
	}
}

// TestNamespaceOpsReadNothing runs every namespace operation over 100
// small directories and one of several blocks, across many buffer flushes,
// and requires that none of them reads the device: the directories are in
// the directory cache, so their saves know every byte they write.
func TestNamespaceOpsReadNothing(t *testing.T) {
	d := disk.MustNew(disk.DefaultGeometry(32768))
	fs, err := Format(d, Options{Tracer: obs.New(nil)}) // defaults: no read cache
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel()
	step := stepper(t, &fs, m)
	link := func(oldPath, newPath string) {
		t.Helper()
		if err := fs.Link(oldPath, newPath); err != nil {
			t.Fatalf("link %s %s: %v", oldPath, newPath, err)
		}
		m.Files[newPath] = m.Files[oldPath]
	}
	rmdir := func(p string) {
		t.Helper()
		if err := fs.Remove(p); err != nil {
			t.Fatalf("rmdir %s: %v", p, err)
		}
		delete(m.Dirs, p)
	}
	sync := func() { step(Op{Kind: OpSync}) }
	before := d.Stats().ReadOps

	const ndirs, nfiles, nbig = 100, 1500, 300
	dir := func(i int) string { return fmt.Sprintf("/d%02d", i%ndirs) }
	file := func(i int) string { return fmt.Sprintf("%s/f%04d", dir(i), i) }
	// /big's entries are 46 bytes each: 300 of them span four blocks.
	big := func(i int) string { return fmt.Sprintf("/big/%s%04d", strings.Repeat("n", 36), i) }
	for i := 0; i < ndirs; i++ {
		step(Op{Kind: OpMkdir, Path: dir(i)})
	}
	step(Op{Kind: OpMkdir, Path: "/big"})
	sync()
	flushes := fs.Stats().PartialWrites
	for i := 0; i < nfiles; i++ {
		step(Op{Kind: OpCreate, Path: file(i)})
		step(Op{Kind: OpWrite, Path: file(i), Data: nonZero(i, 100+i%900)})
	}
	for i := 0; i < nbig; i++ {
		step(Op{Kind: OpCreate, Path: big(i)})
	}
	sync()
	if n := fs.Stats().PartialWrites - flushes; n < 5 {
		t.Fatalf("the create phase flushed the write buffer %d times, want several", n)
	}
	for i := 0; i < nfiles; i += 3 {
		link(file(i), fmt.Sprintf("%s/l%04d", dir(i+1), i))
	}
	sync()
	for i := 1; i < nfiles; i += 3 {
		step(Op{Kind: OpRename, Path: file(i), Path2: file(i) + "r"})                              // same directory
		step(Op{Kind: OpRename, Path: file(i) + "r", Path2: fmt.Sprintf("%s/x%04d", dir(i+7), i)}) // across
	}
	step(Op{Kind: OpRename, Path: big(7), Path2: "/big/short"})
	sync()
	for i := 0; i < nfiles; i += 3 {
		step(Op{Kind: OpRemove, Path: file(i)}) // the link keeps the inode
	}
	for i := 2; i < nfiles; i += 3 {
		step(Op{Kind: OpRemove, Path: file(i)})
	}
	for i := 0; i < nbig; i += 2 { // from every block of /big, first to last
		step(Op{Kind: OpRemove, Path: big(i)})
	}
	sync()
	step(Op{Kind: OpMkdir, Path: "/d00/sub"})
	step(Op{Kind: OpCreate, Path: "/d00/sub/only"})
	sync()
	step(Op{Kind: OpRemove, Path: "/d00/sub/only"})
	sub, err := fs.resolve("/d00/sub")
	if err != nil {
		t.Fatal(err)
	}
	if e := *fs.icache.get(sub).dir; cap(e) != 0 {
		t.Errorf("an emptied directory keeps its entry array: cap %d", cap(e))
	}
	fs.icache.each(func(inum uint32, mi *mInode) {
		if mi.dir == nil {
			return
		}
		if e := *mi.dir; cap(e) > len(e) && e[:len(e)+1][len(e)] != (layout.DirEntry{}) {
			t.Errorf("directory %d keeps a removed entry reachable past its end: %+v", inum, e[:len(e)+1][len(e)])
		}
	})
	rmdir("/d00/sub")
	sync()

	if n := d.Stats().ReadOps - before; n != 0 {
		t.Errorf("the namespace script issued %d device reads, want 0", n)
	}
	if n := fs.Metrics().Counters[obs.CtrWriteRMWReads]; n != 0 {
		t.Errorf("%s = %d, want 0", obs.CtrWriteRMWReads, n)
	}
	fs = remountVerify(t, fs, d, m)
	for i := 0; i < nfiles; i += 3 {
		if _, err := fs.Stat(file(i)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("removed %s: Stat err = %v", file(i), err)
		}
	}
	if ents, err := fs.ReadDir("/big"); err != nil || len(ents) != nbig/2 {
		t.Fatalf("/big holds %d entries (err %v), want %d", len(ents), err, nbig/2)
	}
}

// TestWriteRuleBoundaries drives WriteAt over the boundary cases of the
// write rule — old size × block-aligned or mid-block start × end short
// of, at, or past EOF — on a file that is clean on disk and on one that is
// dirty in the file cache. The device is read exactly once per block of
// which old bytes survive, contents equal the model's after a remount, and
// a later extension reads zeros between the old and new end of file.
func TestWriteRuleBoundaries(t *testing.T) {
	const bs = layout.BlockSize
	opts := testOptions()
	opts.Tracer = obs.New(nil)
	fs, d := newTestFS(t, 8192, opts)
	m := NewModel()
	step := stepper(t, &fs, m)
	// survivors counts the blocks of a file of size bytes, all stored,
	// of which [off, end) leaves old bytes standing.
	survivors := func(size, off, end int64) (n int64) {
		for b := off / bs; b*bs < end; b++ {
			oldEnd := min(max(size-b*bs, 0), bs)
			wStart, wEnd := max(off, b*bs)-b*bs, min(end, (b+1)*bs)-b*bs
			if oldEnd > 0 && (wStart > 0 || wEnd < oldEnd) {
				n++
			}
		}
		return n
	}
	var paths []string
	ncase := 0
	for _, size := range []int64{0, 1, 3000, 4095, 4096, 4097, 8192} {
		last := max(size-1, 0) / bs * bs // first byte of the last block
		offs := []int64{0, 100}
		if last > 0 {
			offs = append(offs, last, last+100)
		}
		for _, off := range offs {
			for _, end := range []int64{size - 1, size, size + 500, size + 5000} {
				if end <= off {
					continue
				}
				for _, dirty := range []bool{false, true} {
					ncase++
					name := fmt.Sprintf("size=%d off=%d end=%d dirty=%v", size, off, end, dirty)
					path := fmt.Sprintf("/c%03d", ncase)
					paths = append(paths, path)
					step(Op{Kind: OpCreate, Path: path})
					if !dirty && size > 0 {
						step(Op{Kind: OpWrite, Path: path, Data: nonZero(ncase, int(size))})
					}
					step(Op{Kind: OpSync})
					if dirty && size > 0 {
						step(Op{Kind: OpWrite, Path: path, Data: nonZero(ncase, int(size))})
					}
					want := survivors(size, off, end)
					if dirty {
						want = 0
					}
					reads, rmw := d.Stats().ReadOps, fs.Metrics().Counters[obs.CtrWriteRMWReads]
					step(Op{Kind: OpWrite, Path: path, Off: off, Data: nonZero(ncase+1, int(end-off))})
					reads, rmw = d.Stats().ReadOps-reads, fs.Metrics().Counters[obs.CtrWriteRMWReads]-rmw
					if reads != want || rmw != want {
						t.Errorf("%s: %d device reads, %s +%d, want %d of each", name, reads, obs.CtrWriteRMWReads, rmw, want)
					}
				}
			}
		}
	}
	if ncase < 100 {
		t.Fatalf("only %d cases generated", ncase)
	}
	step(Op{Kind: OpSync})
	fs = remountVerify(t, fs, d, m)
	for _, p := range paths {
		step(Op{Kind: OpTruncate, Path: p, Size: int64(len(m.Files[p])) + 6000})
	}
	remountVerify(t, fs, d, m)
}

// TestBlockPoolBalanced runs create → mid-block overwrite of stored
// blocks → remove cycles with no read cache and requires that every block
// buffer taken from the pool is either back in it or still held by the
// file cache: a read-modify-write reads into the buffer it keeps.
func TestBlockPoolBalanced(t *testing.T) {
	fs, _ := newTestFS(t, 8192, testOptions())
	sync := func() {
		t.Helper()
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	var misses int64
	for cycle := 0; cycle < 4; cycle++ {
		for i := 0; i < 20; i++ {
			if err := fs.WriteFile(fmt.Sprintf("/f%d", i), nonZero(i, 3000)); err != nil {
				t.Fatal(err)
			}
		}
		sync()
		for i := 0; i < 20; i++ {
			if _, err := fs.WriteAt(fmt.Sprintf("/f%d", i), 100, nonZero(cycle, 50)); err != nil {
				t.Fatal(err)
			}
		}
		if s, held := fs.bpool.Stats(), int64(len(fs.dcache)); held == 0 || s.Gets != s.Puts+held || s.Drops != 0 {
			t.Fatalf("cycle %d, overwrites staged: %+v with %d buffers held, want Gets == Puts + held", cycle, s, held)
		}
		sync()
		got, err := fs.ReadFile("/f3")
		if want := append(append(nonZero(3, 100), nonZero(cycle, 50)...), nonZero(3, 3000)[150:]...); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("cycle %d: /f3 differs from what was written at byte %d (err %v)", cycle, diffAt(got, want), err)
		}
		for i := 0; i < 20; i++ {
			if err := fs.Remove(fmt.Sprintf("/f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		sync()
		s := fs.bpool.Stats()
		if s.Gets != s.Puts || s.Drops != 0 {
			t.Fatalf("cycle %d: %+v, want every Get matched by a Put", cycle, s)
		}
		if cycle == 0 {
			misses = s.Misses
		} else if s.Misses != misses {
			t.Fatalf("cycle %d: pool misses grew from %d to %d", cycle, misses, s.Misses)
		}
	}
	mustCheck(t, fs)
}

// TestFlushDrawsNoRunBuffer flushes a 100-block file through several
// partial writes and requires that each was one device request and that the
// run pool served none of it: the log writer hands the summary and the
// staged buffers to the device as they are, in one gather request.
func TestFlushDrawsNoRunBuffer(t *testing.T) {
	fs, d := newTestFS(t, 8192, testOptions())
	gets, writes, partials := fs.rpool.Stats().Gets, d.Stats().WriteOps, fs.Stats().PartialWrites
	if err := fs.WriteFile("/f", nonZero(1, 100*layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	n, p := d.Stats().WriteOps-writes, fs.Stats().PartialWrites-partials
	if p < 4 || n != p {
		t.Fatalf("the flush issued %d device writes for %d partial writes, want one each (≥ 4)", n, p)
	}
	if n := fs.rpool.Stats().Gets - gets; n != 0 {
		t.Fatalf("the flush drew %d run buffers, want 0", n)
	}
	mustCheck(t, fs)
}

// BenchmarkWriteBatch is the cost ledger's row for one partial-segment
// write: 127 staged blocks and their summary, written again and again at
// the start of one segment. "data" stages file data, which the writer
// sums; "cleaner" stages cleaner copies, which arrive with the sum their
// victim's summary recorded. Each block is block 0 of a file of its own,
// so each write's placement retires the copy the one before it wrote.
func BenchmarkWriteBatch(b *testing.B) {
	for _, cleaner := range []bool{false, true} {
		name := "data"
		if cleaner {
			name = "cleaner"
		}
		b.Run(name, func(b *testing.B) {
			d := disk.MustNew(disk.DefaultGeometry(4096))
			fs, err := Format(d, Options{})
			if err != nil {
				b.Fatal(err)
			}
			const n = 127
			batch := make([]stagedBlock, n)
			for i := range batch {
				data := nonZero(i, layout.BlockSize)
				batch[i] = stagedBlock{
					entry:   layout.SummaryEntry{Kind: layout.KindData, Inum: 2, Sum: layout.Checksum(data)},
					data:    data,
					file:    newMInode(*layout.NewInode(2, layout.FileTypeRegular)),
					cleaner: cleaner,
					summed:  cleaner,
				}
			}
			fs.mu.Lock()
			if err := fs.segs.advance(fs.usage, fs.ticks.Load(), false); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(n * layout.BlockSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fs.writeBatch(batch); err != nil {
					b.Fatal(err)
				}
				fs.segs.headOff = 0 // the next batch lands on the same blocks
			}
			b.StopTimer()
			fs.mu.Unlock()
			if err := fs.Unmount(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkCreateRemove is the cost ledger's row for the namespace path:
// one op is a WriteFile of 1 KB or the Remove of that file, in one
// directory and spread over 100, with a Sync after each phase (Figure 8's
// create and delete phases).
func BenchmarkCreateRemove(b *testing.B) {
	for _, ndirs := range []int{1, 100} {
		b.Run(fmt.Sprintf("dirs=%d", ndirs), func(b *testing.B) {
			const nfiles = 2000
			d := disk.MustNew(disk.DefaultGeometry(32768))
			fs, err := Format(d, Options{})
			if err != nil {
				b.Fatal(err)
			}
			paths := make([]string, nfiles)
			for i := range paths {
				paths[i] = fmt.Sprintf("/d%02d/f%04d", i%ndirs, i)
			}
			for i := 0; i < ndirs; i++ {
				if err := fs.Mkdir(fmt.Sprintf("/d%02d", i)); err != nil {
					b.Fatal(err)
				}
			}
			payload := nonZero(1, 1024)
			check := func(err error) {
				if err != nil {
					b.Fatal(err)
				}
			}
			before := d.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range paths {
					check(fs.WriteFile(p, payload))
				}
				check(fs.Sync())
				for _, p := range paths {
					check(fs.Remove(p))
				}
				check(fs.Sync())
			}
			b.StopTimer()
			cost, ops := d.Stats().Sub(before), float64(b.N)*2*nfiles
			b.ReportMetric(float64(cost.ReadOps)/ops, "dev-reads/op")
			b.ReportMetric(cost.BusyTime.Seconds()*1e3/ops, "sim-ms/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/ops, "ns/op")
		})
	}
}
