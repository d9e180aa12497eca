package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// TestReadAheadWindow drives the window without a file system: a load hands
// back the blocks asked for and holds the rest, a segment's worth; a read
// serves the held blocks a run starts with, takes them and those before them
// off the window, and always moves the prediction; drop forgets what it names,
// and a hole it leaves ends the held run; a failed load holds nothing; and
// what a reader copied out is its own whatever the window does next.
func TestReadAheadWindow(t *testing.T) {
	const bs, win = layout.BlockSize, 128 // win: a default segment
	d := disk.MustNew(disk.DefaultGeometry(4 * win))
	for a := int64(0); a < 4*win; a++ {
		if err := d.WriteBlock(a, bytes.Repeat([]byte{byte(a)}, bs)); err != nil {
			t.Fatal(err)
		}
	}
	var ra readAhead
	dst := make([]byte, 2*bs)
	read := func(addr int64, n int) int {
		t.Helper()
		held, _ := ra.read(addr, n, blockKey{}, blockKey{}, dst[:n*bs])
		for i := 0; i < held; i++ {
			if got := dst[i*bs]; got != byte(addr)+byte(i) || !bytes.Equal(dst[i*bs:(i+1)*bs], bytes.Repeat([]byte{got}, bs)) {
				t.Fatalf("read(%d, %d): block %d holds %d", addr, n, i, got)
			}
		}
		return held
	}
	type step struct {
		addr     int64
		n, start int
	}
	reads := func(when string, steps []step) {
		t.Helper()
		for _, c := range steps {
			if got := read(c.addr, c.n); got != c.start {
				t.Errorf("read(%d, %d) %s: %d blocks held at its start, want %d", c.addr, c.n, when, got, c.start)
			}
		}
	}

	// The prediction: nothing at first, then whatever the last read named.
	f1, f2, f3 := blockKey{7, 0}, blockKey{8, 0}, blockKey{9, 0}
	if held, predicted := ra.read(10, 1, f1, f2, dst[:bs]); held != 0 || predicted {
		t.Fatalf("empty window: %d blocks held, predicted %v", held, predicted)
	}
	if _, predicted := ra.read(20, 1, f2, f3, dst[:bs]); !predicted {
		t.Fatal("the block the last read named is not predicted")
	}
	if _, predicted := ra.read(20, 1, f1, f3, dst[:bs]); predicted {
		t.Fatal("a block the last read did not name is predicted")
	}

	// A load asking for 2 of win blocks at 10 returns 10 and 11, holds
	// 12..win+9. A read takes what it is served: 12 and 13, then 15 and 16,
	// passing 14.
	if err := ra.load(d, 10, 2, win, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 10 || dst[bs] != 11 {
		t.Fatalf("load handed back blocks %d and %d, want 10 and 11", dst[0], dst[bs])
	}
	reads("after the load", []step{{10, 1, 0}, {11, 2, 0}, {9, 1, 0}, {win + 10, 1, 0}, {12, 2, 2}, {12, 1, 0}, {15, 2, 2}, {14, 1, 0}, {16, 1, 0}})
	// The window holds 17..win+9. Drops cut its front (17), its end (from
	// 120) and a hole (at 25), which ends it: 18..24 are left.
	ra.drop(16, 2)
	ra.drop(120, 100)
	ra.drop(25, 1)
	ra.drop(200, 5)
	if ra.base != 18 || ra.held() != 7 {
		t.Fatalf("after the drops the window holds %d blocks at %d, want 7 at 18", ra.held(), ra.base)
	}
	reads("after the drops", []step{{17, 1, 0}, {18, 2, 2}, {25, 1, 0}, {24, 2, 1}})
	if ra.buf != nil {
		t.Fatalf("the window keeps a %d-byte buffer once its last block was served", cap(ra.buf))
	}

	// What a reader copied out stays its own: the next load fills a buffer
	// of its own, and scribbling on the copy does not reach the window.
	if err := ra.load(d, 30, 1, win, dst); err != nil {
		t.Fatal(err)
	}
	if read(31, 1) != 1 {
		t.Fatal("block 31 not held")
	}
	scratch := make([]byte, bs)
	if err := ra.load(d, 30, 1, win, scratch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst[:bs], bytes.Repeat([]byte{31}, bs)) {
		t.Fatal("a load changed a block a reader had already copied out")
	}
	clear(dst)
	if read(31, 1) != 1 {
		t.Fatal("block 31 not held")
	}

	// A failed load holds nothing, the previous run included.
	if err := d.InjectFault(disk.Fault{Kind: disk.FaultReadError, Addr: 40}); err != nil {
		t.Fatal(err)
	}
	if err := ra.load(d, 35, 1, win, scratch); !errors.Is(err, disk.ErrMediaRead) {
		t.Fatalf("load over a bad block: %v, want a media error", err)
	}
	for _, addr := range []int64{32, 36, 41} {
		if read(addr, 1) != 0 {
			t.Errorf("block %d served after a failed load", addr)
		}
	}
	if ra.buf != nil {
		t.Fatal("a failed load keeps a buffer")
	}
	if blocks, hits := ra.blocks.Load(), ra.hits.Load(); blocks != 3*(win-1)-1 || hits != 9 {
		t.Errorf("counted %d blocks fetched ahead and %d served, want %d and 9", blocks, hits, 3*(win-1)-1)
	}
}

// streamFS formats a file system without a read cache, with segments of
// segBlocks blocks, and writes n one-block files in one burst, in one flush,
// so they lie in the log in creation order.
func streamFS(t *testing.T, n, segBlocks int) (*FS, *disk.Disk, []string) {
	t.Helper()
	opts := testOptions()
	opts.SegmentBlocks = segBlocks
	fs, d := newTestFS(t, int64(64*segBlocks), opts)
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/d/f%03d", i)
		if err := fs.WriteFile(paths[i], content(paths[i], 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	return fs, d, paths
}

// noStream returns a permutation of n in which no element is followed by its
// successor: a read order that never continues a stream.
func noStream(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	for {
		p := rng.Perm(n)
		ok := true
		for i := 1; i < n && ok; i++ {
			ok = p[i] != p[i-1]+1
		}
		if ok {
			return p
		}
	}
}

// TestReadAheadOnlyOnStreams: reads that do not continue a stream — files in
// shuffled order, chunks of a large file in a random permutation — fetch
// exactly the blocks they ask for; read in log order, the same files take a
// request per partial write they lie in, and one for the read that starts the
// stream.
func TestReadAheadOnlyOnStreams(t *testing.T) {
	const nfiles = 64
	fs, d, paths := streamFS(t, nfiles, 256)
	partials := fs.Stats().PartialWrites // every one the log holds, the files' among them
	blocksRead := func(read func()) (reqs, blocks int64) {
		t.Helper()
		before := d.Stats()
		read()
		after := d.Stats()
		return after.ReadOps - before.ReadOps, after.BlocksRead - before.BlocksRead
	}
	readFile := func(i int) {
		t.Helper()
		if got, err := fs.ReadFile(paths[i]); err != nil || !bytes.Equal(got, content(paths[i], 1, 1)) {
			t.Fatalf("%s: %d bytes, %v", paths[i], len(got), err)
		}
	}
	if reqs, blocks := blocksRead(func() {
		for _, i := range noStream(nfiles, 1) {
			readFile(i)
		}
	}); reqs != nfiles || blocks != nfiles {
		t.Errorf("shuffled reads of %d files: %d requests for %d blocks, want one block each", nfiles, reqs, blocks)
	}
	if st := fs.Stats(); st.ReadAheadBlocks != 0 || st.ReadAheadHits != 0 {
		t.Errorf("shuffled reads read ahead %d blocks and served %d from the window", st.ReadAheadBlocks, st.ReadAheadHits)
	}
	if reqs, blocks := blocksRead(func() {
		for i := range paths {
			readFile(i)
		}
	}); blocks != nfiles || reqs > partials+1 {
		t.Errorf("in-order reads of %d files: %d requests for %d blocks, want %d blocks in at most %d", nfiles, reqs, blocks, nfiles, partials+1)
	} else {
		t.Logf("in-order reads of %d files over %d partial writes: %d requests", nfiles, partials, reqs)
	}

	// A large file, read 8 KB at a time in a random permutation of chunks.
	const chunks = 300 // past the direct blocks, into the single indirect block
	big := content("/big", 1, 2*chunks)
	if err := fs.WriteFile("/big", big); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.ResetStats()
	buf := make([]byte, 2*layout.BlockSize)
	if reqs, blocks := blocksRead(func() {
		for _, c := range noStream(chunks, 2) {
			off := int64(c) * int64(len(buf))
			if n, err := fs.ReadAt("/big", off, buf); err != nil || !bytes.Equal(buf[:n], big[off:off+int64(len(buf))]) {
				t.Fatalf("chunk %d: %d bytes, %v", c, n, err)
			}
		}
	}); blocks != 2*chunks {
		t.Errorf("random 8 KB reads of a %d-block file: %d requests for %d blocks", 2*chunks, reqs, blocks)
	}
	if st := fs.Stats(); st.ReadAheadBlocks != 0 {
		t.Errorf("random reads read ahead %d blocks", st.ReadAheadBlocks)
	}
}

// TestReadAheadWindowReleased: a stream's request takes the log's run past
// 16 blocks, but never spans more than a segment, and the window holds a
// buffer only while its stream has blocks in it to read: once the last block
// a load held is served, or dropped, it holds none.
func TestReadAheadWindowReleased(t *testing.T) {
	const nfiles, segBlocks = 300, 64
	fs, d, paths := streamFS(t, nfiles, segBlocks)
	ring := obs.NewRingSink(1 << 12)
	d.SetTracer(obs.New(ring))
	for i, p := range paths {
		if got, err := fs.ReadFile(p); err != nil || !bytes.Equal(got, content(p, 1, 1)) {
			t.Fatalf("%s: %d bytes, %v", p, len(got), err)
		}
		if fs.ra.held() == 0 && fs.ra.buf != nil {
			t.Fatalf("after reading %s the window holds no block but keeps a %d-byte buffer", paths[i], cap(fs.ra.buf))
		}
	}
	d.SetTracer(nil)
	if ring.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; grow the sink", ring.Dropped())
	}
	most := 0
	for _, e := range ring.Events() {
		if e.Kind != obs.KindDiskIO || e.Disk.Op != "read" {
			continue
		}
		if first, last := e.Disk.Addr, e.Disk.Addr+int64(e.Disk.Blocks)-1; fs.segOf(first) != fs.segOf(last) {
			t.Errorf("a %d-block read at %d spans segments %d to %d", e.Disk.Blocks, first, fs.segOf(first), fs.segOf(last))
		}
		most = max(most, e.Disk.Blocks)
	}
	if most <= 16 {
		t.Errorf("the longest read of %d files in log order took %d blocks; the stream's runs reach %d", nfiles, most, segBlocks)
	}
	if fs.ra.buf != nil {
		t.Fatalf("the stream read every file, yet the window keeps %d held blocks in a %d-byte buffer", fs.ra.held(), cap(fs.ra.buf))
	}

	// Two in-order reads fill the window; the files it holds die, and with
	// them the window's buffer.
	for _, p := range paths[:2] {
		if _, err := fs.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	if fs.ra.held() == 0 {
		t.Fatal("two in-order reads left the window empty")
	}
	for _, p := range paths[2:] {
		if err := fs.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if fs.ra.buf != nil {
		t.Fatalf("every file it held died, yet the window keeps %d held blocks in a %d-byte buffer", fs.ra.held(), cap(fs.ra.buf))
	}
	mustCheck(t, fs)
}

// TestReadAheadNeverServesStale: the window never outlives the blocks it
// holds. Blocks it holds die when their files are overwritten (decLive drops
// them), and a window that still held an address when the log writes it
// again (writeBatch drops it) would serve the old bytes; either way, every
// read after the overwrite, the cleaning and the reuse returns the new bytes.
func TestReadAheadNeverServesStale(t *testing.T) {
	const nfiles = 40
	fs, _, paths := streamFS(t, nfiles, 32)
	check := func(version int) {
		t.Helper()
		for i, p := range paths {
			got, err := fs.ReadFile(p)
			if err != nil || !bytes.Equal(got, content(p, version, 1)) {
				t.Fatalf("read %d (%s) after version %d was written: %d bytes, %v", i, p, version, len(got), err)
			}
		}
	}
	held := func() []int64 {
		var out []int64
		for i := int64(0); i < fs.ra.held(); i++ {
			out = append(out, fs.ra.base+i)
		}
		return out
	}
	// Fill the window: reading the first two files in order fetches, ahead
	// of the second, every file that lies after it in its segment, one
	// address after the other.
	ahead := 0
	_, prev := dataBlockAddr(t, fs, paths[1], 0)
	for _, p := range paths[2:] {
		if _, addr := dataBlockAddr(t, fs, p, 0); addr == prev+1 && fs.segOf(addr) == fs.segOf(prev) {
			ahead, prev = ahead+1, addr
			continue
		}
		break
	}
	for _, p := range paths[:2] {
		if _, err := fs.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(held()); n != ahead || n == 0 {
		t.Fatalf("the window holds %d blocks after two in-order reads, want %d (and some)", n, ahead)
	}
	// Overwrite every file: each block the window holds dies.
	for _, p := range paths {
		if err := fs.WriteFile(p, content(p, 2, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if h := held(); len(h) != 0 {
		t.Fatalf("the window still holds %d dead blocks (%v)", len(h), h)
	}
	check(2)

	// A window over addresses the log is about to write, as one that missed
	// a death would be: the next flush writes them, and must drop them.
	head := fs.segStart(fs.segs.head) + fs.segs.headOff
	if err := fs.ra.load(fs.dev, head, 0, int(fs.segBlocks-fs.segs.headOff), nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if err := fs.WriteFile(p, content(p, 3, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	check(3)

	// Overwrite, clean and read in log order (filling the window) until the
	// log has written more than the disk holds: every segment the first
	// versions used has been cleaned and written again.
	for v := 4; fs.Stats().LogBytesTotal() <= fs.nsegs*fs.segBytes; v++ {
		for _, p := range paths {
			if err := fs.WriteFile(p, content(p, v, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := fs.Clean(); err != nil {
			t.Fatal(err)
		}
		check(v)
	}
	if fs.Degraded() || len(fs.QuarantinedSegments()) != 0 {
		t.Fatalf("degraded %v, quarantined %v", fs.Degraded(), fs.QuarantinedSegments())
	}
	if st := fs.Stats(); st.ReadAheadHits == 0 {
		t.Fatal("no read was served from the window")
	}
	mustCheck(t, fs)
}

// TestReadAheadFaultStaysWithItsFile puts a latent read error, then
// corruption, on the block of a file that only read-ahead would fetch while
// another file is read: that read succeeds, nothing is quarantined or
// degraded, and the next read of the faulted file meets the fault as it
// would have without read-ahead.
func TestReadAheadFaultStaysWithItsFile(t *testing.T) {
	for _, f := range []struct {
		name  string
		fault disk.Fault
	}{
		{"read-error", disk.Fault{Kind: disk.FaultReadError}},
		{"corrupt", disk.Fault{Kind: disk.FaultCorrupt, Seed: 99}},
	} {
		t.Run(f.name, func(t *testing.T) {
			fs, d, paths := streamFS(t, 8, 32)
			inum, addr := dataBlockAddr(t, fs, paths[3], 0)
			if _, err := fs.ReadFile(paths[0]); err != nil { // predicts paths[1]
				t.Fatal(err)
			}
			f.fault.Addr = addr
			if err := d.InjectFault(f.fault); err != nil {
				t.Fatal(err)
			}
			before := d.Stats().BlocksRead
			if got, err := fs.ReadFile(paths[1]); err != nil || !bytes.Equal(got, content(paths[1], 1, 1)) {
				t.Fatalf("%s, read with the faulted block ahead of it: %d bytes, %v", paths[1], len(got), err)
			}
			if n := d.Stats().BlocksRead - before; n < 3 {
				t.Fatalf("reading %s fetched %d blocks; the faulted block was not read ahead", paths[1], n)
			}
			if fs.Degraded() || len(fs.QuarantinedSegments()) != 0 {
				t.Fatalf("after the read ahead: degraded %v, quarantined %v", fs.Degraded(), fs.QuarantinedSegments())
			}
			_, err := fs.ReadFile(paths[3])
			var me *disk.MediaError
			var ce *ErrCorrupted
			switch {
			case f.fault.Kind == disk.FaultReadError && !errors.As(err, &me):
				t.Fatalf("%s: %v, want the media error of its block", paths[3], err)
			case f.fault.Kind == disk.FaultCorrupt && (!errors.As(err, &ce) || ce.Ino != inum || ce.Addr != addr):
				t.Fatalf("%s: %v, want corruption of inode %d's block at %d", paths[3], err, inum, addr)
			}
			for _, p := range []string{paths[2], paths[4]} {
				if _, err := fs.ReadFile(p); err != nil {
					t.Errorf("%s beside the faulted block: %v", p, err)
				}
			}
		})
	}
}

// TestReadAheadStress runs two readers streaming through the files in log
// order against a writer overwriting them (and, at this disk size, cleaning);
// under -race it exercises the window's lock against every reader and the
// drops the writer makes. A block names its file and generation, so a reader
// can tell a torn or stale read from a generation it raced.
func TestReadAheadStress(t *testing.T) {
	const nfiles = 96
	opts := testOptions()
	opts.Tracer = obs.New(nil)
	fs, _ := newTestFS(t, 1024, opts)
	block := func(f, gen int) []byte {
		b := content(fmt.Sprint(f, gen), 1, 1)
		binary.LittleEndian.PutUint32(b, uint32(f))
		binary.LittleEndian.PutUint32(b[4:], uint32(gen))
		return b
	}
	path := func(f int) string { return fmt.Sprintf("/f%03d", f) }
	for f := 0; f < nfiles; f++ {
		if err := fs.WriteFile(path(f), block(f, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	errc := make(chan error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				for f := 0; f < nfiles; f++ {
					select {
					case <-done:
						return
					default:
					}
					got, err := fs.ReadFile(path(f))
					if err == nil && (len(got) != layout.BlockSize || binary.LittleEndian.Uint32(got) != uint32(f) ||
						!bytes.Equal(got, block(f, int(binary.LittleEndian.Uint32(got[4:]))))) {
						err = errors.New("torn or foreign block")
					}
					if err != nil {
						errc <- fmt.Errorf("reader %d: %s: %v", r, path(f), err)
						return
					}
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(3))
	for k := 1; k <= 2000; k++ {
		f := rng.Intn(nfiles)
		if err := fs.WriteFile(path(f), block(f, k)); err != nil {
			t.Errorf("overwrite %d of %s: %v", k, path(f), err)
			break
		}
		if k%50 == 0 {
			if err := fs.Sync(); err != nil {
				t.Errorf("sync: %v", err)
				break
			}
		}
	}
	close(done)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if st := fs.Stats(); st.CleaningPasses == 0 || st.ReadAheadHits == 0 {
		t.Errorf("%d cleaning passes, %d blocks served from the window; the stress did not reach both", st.CleaningPasses, st.ReadAheadHits)
	}
	mustCheck(t, fs)
}
