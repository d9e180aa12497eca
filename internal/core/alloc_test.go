package core

import (
	"bytes"
	"fmt"
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
	// No group-commit goroutine and no background cleaner: their
	// bookkeeping runs on other goroutines whose allocations would be
	// misattributed to the read loop by AllocsPerRun.
	opts.NoGroupCommit = true
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
	opts.NoGroupCommit = true
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
// blocks, is read in place: layout.TestInodeBlockAllocs pins it at one
// Inode per kept slot.
func TestAllocsCleanerDecodeScratch(t *testing.T) {
	opts := testOptions()
	opts.NoGroupCommit = true
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
