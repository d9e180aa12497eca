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
// Inode; the bound is the measured 1 plus 10 %.
func TestAllocsUncachedStat(t *testing.T) {
	const maxPerStat = 1.1
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
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	stat := func() {
		if _, err := fs.Stat(paths[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	avg := testing.AllocsPerRun(n, stat) // n+1 calls, each of an uncached inode
	t.Logf("an uncached Stat allocates %.2f times", avg)
	if avg > maxPerStat {
		t.Fatalf("an uncached Stat after Mount allocates %.2f times, want at most %.2f", avg, float64(maxPerStat))
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
