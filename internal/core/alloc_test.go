package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/layout"
)

// TestAllocsCachedRead pins the zero-allocation cached-read path: a
// ReadAt whose path components, directory, inode and data block are all
// cached must not allocate at all. Everything on the path was made
// allocation-free for this — pathComponent walks the path string
// without splitting it, readerEnter/readerExit are a method pair
// instead of a returned closure, the nil tracer short-circuits, and
// readDiskBlock serves the cache's own immutable slice instead of a
// copy. Any regression (a new closure, a stray fmt call, a defensive
// copy) shows up here as a fraction of an allocation per run.
func TestAllocsCachedRead(t *testing.T) {
	opts := testOptions()
	opts.ReadCacheBlocks = 64
	fs, _ := newTestFS(t, 2048, opts)

	content := bytes.Repeat([]byte("zeroalloc"), layout.BlockSize/16)
	if err := fs.WriteFile("/dir-not-needed", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/d/f", content); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, layout.BlockSize)
	read := func() {
		if _, err := fs.ReadAt("/d/f", 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	// Warm every cache on the path (read cache, inode cache, directory
	// cache, inode-map dirty marks) before counting.
	for i := 0; i < 8; i++ {
		read()
	}
	if avg := testing.AllocsPerRun(200, read); avg != 0 {
		t.Fatalf("cached ReadAt allocates %.2f times per op, want 0", avg)
	}
}

// TestAllocsCachedStat extends the pin to Stat, which shares the
// resolve path but returns by value.
func TestAllocsCachedStat(t *testing.T) {
	opts := testOptions()
	opts.ReadCacheBlocks = 64
	fs, _ := newTestFS(t, 2048, opts)
	if err := fs.WriteFile("/f", []byte("stat")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	stat := func() {
		if _, err := fs.Stat("/f"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		stat()
	}
	if avg := testing.AllocsPerRun(200, stat); avg != 0 {
		t.Fatalf("cached Stat allocates %.2f times per op, want 0", avg)
	}
}

// TestAllocsCleanerDecodeScratch pins the cleaner's pooled decode
// scratch. A cleaning pass decodes one summary per partial write; with the
// freelist warm, a summary decode must allocate nothing (DecodeSummaryInto
// reuses the entry slice). The other decode of a pass, packed inode
// blocks, is read in place: layout.TestInodeBlockAllocs pins it at none, a
// kept slot costing only the mInode it is copied into.
func TestAllocsCleanerDecodeScratch(t *testing.T) {
	opts := testOptions()
	fs, _ := newTestFS(t, 2048, opts)

	sum := &layout.Summary{WriteSeq: 7, NextSeg: 3}
	for i := 0; i < layout.MaxSummaryEntries; i++ {
		sum.Entries = append(sum.Entries, layout.SummaryEntry{
			Kind: layout.KindData, Inum: uint32(i + 2), BlockNo: uint32(i),
		})
	}
	sumBuf, err := sum.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decodeSum := func() {
		s := fs.getWalkScratch()
		if err := layout.DecodeSummaryInto(sumBuf, &s.Summary); err != nil {
			t.Fatal(err)
		}
		fs.putWalkScratch(s)
	}
	decodeSum() // warm: grows the scratch to MaxSummaryEntries once
	if avg := testing.AllocsPerRun(200, decodeSum); avg != 0 {
		t.Fatalf("warm summary decode allocates %.2f times per op, want 0", avg)
	}
}

// TestPooledPathsUnderRaceStress hammers every pooled path — pooled
// RMW and full-block writes, pooled uncached reads (no rcache), cache
// fills (rcache), truncate reclaim, and the cleaner's pooled segment
// reads — from concurrent goroutines. Run with -race this is the
// freshness check for the ownership discipline: any buffer returned to
// the pool while another goroutine can still read it is a data race on
// the next Get.
func TestPooledPathsUnderRaceStress(t *testing.T) {
	for _, rcache := range []int{0, 16} {
		t.Run(fmt.Sprintf("rcache=%d", rcache), func(t *testing.T) {
			opts := testOptions()
			opts.ReadCacheBlocks = rcache
			fs, _ := newTestFS(t, 4096, opts)
			payload := bytes.Repeat([]byte("stress"), layout.BlockSize/4)

			var wg sync.WaitGroup
			errc := make(chan error, 8)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					path := fmt.Sprintf("/w%d", g)
					if err := fs.Create(path); err != nil {
						errc <- err
						return
					}
					for i := 0; i < 60; i++ {
						// Unaligned offset: exercises the pooled
						// read-modify-write path every iteration.
						if _, err := fs.WriteAt(path, int64(i%7), payload); err != nil {
							errc <- err
							return
						}
						if i%9 == 0 {
							if err := fs.Truncate(path, int64(layout.BlockSize/2)); err != nil {
								errc <- err
								return
							}
						}
					}
				}(g)
			}
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					buf := make([]byte, 3*layout.BlockSize)
					for i := 0; i < 200; i++ {
						// Readers race the writers; ErrNotFound early on
						// (file not yet created) is expected.
						if _, err := fs.ReadAt(fmt.Sprintf("/w%d", (g+i)%4), 0, buf); err != nil && err != ErrUnmounted {
							continue
						}
					}
				}(g)
			}
			wg.Wait()
			select {
			case err := <-errc:
				t.Fatal(err)
			default:
			}
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
			mustCheck(t, fs)
		})
	}
}

// TestAllocsUncachedStat pins what loading an inode costs: a Stat after
// Mount whose inode is not cached yet reads its inode block (through the
// read cache, which serves its own slice) and decodes the one slot the
// inode map points at into the one allocation of its mInode. It read 19
// while loadInode decoded every inode of the block, each to its own heap
// Inode. With the inode blocks already in the read cache, what is left is
// that one allocation and the inode cache's growth: the bound is the
// measured 1.06 plus 4 %, below 1.2. Read cold, each inode block adds its
// buffer, its cache entry and its segment's checksums, a share of 0.21 per
// Stat here: that bound is the measured 1.27 plus 10 %. Both count with
// runtime.ReadMemStats: testing.AllocsPerRun truncates to a whole number,
// so 1.9 allocations per Stat would read 1 through it and pass.
func TestAllocsUncachedStat(t *testing.T) {
	opts := testOptions()
	opts.ReadCacheBlocks = 64
	fs, d := newTestFS(t, 2048, opts)
	const n = 200
	paths := make([]string, n+1)
	for i := range paths {
		paths[i] = fmt.Sprintf("/f%03d", i)
		if err := fs.WriteFile(paths[i], []byte("stat")); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		blocksCached bool
		maxPerStat   float64
	}{{true, 1.1}, {false, 1.4}} {
		if err := fs.Unmount(); err != nil {
			t.Fatal(err)
		}
		var err error
		if fs, err = Mount(d, opts); err != nil {
			t.Fatal(err)
		}
		stat := func(p string) {
			if _, err := fs.Stat(p); err != nil {
				t.Fatal(err)
			}
		}
		stat(paths[n]) // warm what the first Stat after Mount sets up
		if c.blocksCached {
			fs.mu.Lock()
			for inum := range fs.imap.maxInodes() {
				if e := fs.imap.get(uint32(inum)); e.Allocated() {
					if _, err := fs.readDiskBlock(e.Addr); err != nil {
						t.Fatal(err)
					}
				}
			}
			fs.mu.Unlock()
		}
		procs := runtime.GOMAXPROCS(1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, p := range paths[:n] { // each of an uncached inode
			stat(p)
		}
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(procs)
		avg := float64(after.Mallocs-before.Mallocs) / n
		t.Logf("inode blocks cached %v: an uncached Stat allocates %.3f times", c.blocksCached, avg)
		if avg > c.maxPerStat {
			t.Errorf("inode blocks cached %v: an uncached Stat after Mount allocates %.3f times, want at most %.2f",
				c.blocksCached, avg, c.maxPerStat)
		}
	}
}

// TestAllocsFlushMetadata pins what the log's metadata costs to write: a
// checkpoint that flushes n dirty inodes (n/21 inode blocks), then writes
// the inode-map blocks their placement dirtied and the usage table,
// allocates per partial write (its summary-and-metadata buffer and its
// entry list) and per checkpoint (the sorted dirty sets, the staging
// queue's growth, the region's buffer), never per block. Each inode block
// cost four allocations and each map block three while staged blocks
// carried encode and placement closures and encoders returned fresh
// blocks. The bound is the measured allocations per partial write plus
// 10 %; each count is of a warm checkpoint.
func TestAllocsFlushMetadata(t *testing.T) {
	for _, c := range []struct {
		n           int
		maxPerWrite float64
	}{{500, 6.0}, {2000, 5.5}} {
		fs, err := Format(writtenDisk(t, 8192), Options{SegmentBlocks: 32, MaxInodes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.n; i++ {
			if err := fs.Create(fmt.Sprintf("/f%04d", i)); err != nil {
				t.Fatal(err)
			}
		}
		// checkpoint dirties every inode, checkpoints, and returns the
		// allocations, the partial writes and the blocks that took.
		checkpoint := func() (mallocs, writes, blocks int64) {
			fs.mu.Lock()
			defer fs.mu.Unlock()
			fs.icache.each(func(inum uint32, _ *mInode) { fs.markInodeDirty(inum) })
			st := fs.stats
			procs := runtime.GOMAXPROCS(1)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := fs.checkpointLocked()
			runtime.ReadMemStats(&after)
			runtime.GOMAXPROCS(procs)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []layout.BlockKind{layout.KindInode, layout.KindImap, layout.KindSegUsage} {
				blocks += (fs.stats.LogBytesByKind[k] - st.LogBytesByKind[k]) / layout.BlockSize
			}
			return int64(after.Mallocs - before.Mallocs), fs.stats.PartialWrites - st.PartialWrites, blocks
		}
		checkpoint() // warm
		mallocs, writes, blocks := checkpoint()
		per := float64(mallocs) / float64(writes)
		t.Logf("%d inodes: %d allocations for %d metadata blocks in %d partial writes: %.2f per partial write",
			c.n, mallocs, blocks, writes, per)
		if per > c.maxPerWrite {
			t.Errorf("%d inodes: a checkpoint allocates %.2f times per partial write, want at most %.2f", c.n, per, c.maxPerWrite)
		}
	}
}

// TestAllocsNamespaceOps pins what the namespace operations of the small-
// file workload (Figure 8) allocate once the file system is warm: a 1 KB
// create allocates the new file's mInode and nothing else, and a Remove
// and a whole-file overwrite of a one-block file allocate nothing. saveDir
// encodes into a pooled block, the dirlog holds its records by value in
// one array per flush, and truncation clears the cut pointers as it walks
// them; a fresh slice per directory save, a heap record per dirlog entry
// or a slice of the cut blocks per truncation each breaks a bound.
// The write buffer holds a whole phase, so its one flush is the Sync after
// the count: the count is of the operations alone, and the device is not
// written while it runs. A file that stays in each directory keeps its
// entry array from being dropped when the others go.
func TestAllocsNamespaceOps(t *testing.T) {
	const maxPerCreate, maxPerRemove, maxPerOverwrite = 1.1, 0.1, 0.1
	fs, d := newTestFS(t, 8192, Options{MaxInodes: 4096, WriteBufferBlocks: 1024})
	const dirs, n = 10, 600
	for i := 0; i < dirs; i++ {
		if err := fs.Mkdir(fmt.Sprintf("/d%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(fmt.Sprintf("/d%d/keep", i), []byte("k")); err != nil {
			t.Fatal(err)
		}
	}
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/d%d/f%04d", i%dirs, i)
	}
	small, block := bytes.Repeat([]byte("c"), 1024), bytes.Repeat([]byte("o"), layout.BlockSize)
	phases := []struct {
		name string
		op   func(p string) error
		max  float64
	}{
		{"create", func(p string) error { return fs.WriteFile(p, small) }, maxPerCreate},
		{"overwrite", func(p string) error { return fs.WriteFile(p, block) }, maxPerOverwrite},
		{"remove", fs.Remove, maxPerRemove},
	}
	// run applies op to every path, then Syncs; it returns the allocations
	// per operation, Sync not counted.
	run := func(op func(p string) error) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		writes := d.Stats().WriteOps
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, p := range paths {
			if err := op(p); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if got := d.Stats().WriteOps - writes; got != 0 {
			t.Fatalf("%d device writes while counting: the write buffer does not hold a phase", got)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		return float64(after.Mallocs-before.Mallocs) / n
	}
	// One round warms the pools, the caches and their maps.
	for _, ph := range phases {
		run(ph.op)
	}
	for _, ph := range phases {
		avg := run(ph.op)
		t.Logf("%s: %.3f allocations per op", ph.name, avg)
		if avg > ph.max {
			t.Errorf("%s allocates %.3f times per op, want at most %.2f", ph.name, avg, ph.max)
		}
	}
}
