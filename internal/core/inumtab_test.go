package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/layout"
)

// edgeInums are the inums at the edges of the dense per-inode tables: 0,
// the root, the last inum of the first page and the first of the next two,
// and the highest inum the inode map holds.
func edgeInums(maxInodes int) []uint32 {
	return []uint32{0, RootInum, inodePage - 1, inodePage, 3 * inodePage, uint32(maxInodes - 1)}
}

func TestInodeTableEdges(t *testing.T) {
	m := newInodeMap(1 << 16)
	inums := edgeInums(m.maxInodes())
	var tab inodeTable
	if tab.get(RootInum) != nil || tab.get(inums[len(inums)-1]) != nil {
		t.Fatal("an empty table caches an inode")
	}
	for _, inum := range inums {
		pages := len(tab.pages)
		if p, i := pageOf(inum); i == 0 && inum != 0 && p < pages {
			t.Fatalf("inum %d opens page %d, which exists already", inum, p)
		}
		tab.put(inum, newMInode(layout.Inode{Inum: inum}))
	}
	if p, i := pageOf(inodePage); p != 1 || i != 0 {
		t.Fatalf("inum %d is at page %d index %d, want the first slot of page 1", inodePage, p, i)
	}
	for _, inum := range inums {
		if mi := tab.get(inum); mi == nil || mi.ino.Inum != inum {
			t.Fatalf("get(%d) = %v", inum, mi)
		}
		if inum > 0 && !slices.Contains(inums, inum-1) && tab.get(inum-1) != nil {
			t.Fatalf("get(%d) returns an inode never cached", inum-1)
		}
	}
	var seen []uint32
	tab.each(func(inum uint32, mi *mInode) {
		if mi.ino.Inum != inum {
			t.Fatalf("each hands inum %d the inode of %d", inum, mi.ino.Inum)
		}
		seen = append(seen, inum)
	})
	if !slices.Equal(seen, inums) {
		t.Fatalf("each visits %v, want %v", seen, inums)
	}
	tab.put(inodePage, nil)
	if tab.get(inodePage) != nil || tab.get(3*inodePage) == nil {
		t.Fatal("uncaching one inum took another")
	}
}

func TestInumSetEdges(t *testing.T) {
	inums := edgeInums(1 << 16)
	var s inumSet
	s.del(RootInum) // absent from an empty set
	for _, inum := range inums {
		if !s.add(inum) || s.add(inum) {
			t.Fatalf("add(%d) twice: want new, then present", inum)
		}
	}
	s.del(5)       // absent, inside the bitmap
	s.del(1 << 20) // absent, beyond it
	if s.n != len(inums) {
		t.Fatalf("len %d, want %d", s.n, len(inums))
	}
	// Deleted and re-added: one member, counted once, iterated once.
	s.del(inodePage)
	s.del(RootInum)
	if s.has(RootInum) || s.n != len(inums)-2 {
		t.Fatalf("after two deletes: has(root) %v, len %d", s.has(RootInum), s.n)
	}
	s.add(RootInum)
	s.add(RootInum)
	want := slices.DeleteFunc(slices.Clone(inums), func(inum uint32) bool { return inum == inodePage })
	if got := s.sorted(); !slices.Equal(got, want) || s.n != len(want) {
		t.Fatalf("sorted %v (len %d), want %v", got, s.n, want)
	}
	list := s.sorted()
	s.clear()
	if s.n != 0 || slices.ContainsFunc(inums, s.has) {
		t.Fatalf("a cleared set has len %d", s.n)
	}
	s.reuse(list)
	if !s.add(7) || &s.list[0] != &list[0] {
		t.Fatal("the set did not take back the list it handed out")
	}
}

// TestStagedBlocksDropsRemovedInode checks that removing a file whose
// inode is dirty takes it out of the count the admission gate and the
// buffer-full check read: one inode block fewer once the dirty inodes fit
// in one less.
func TestStagedBlocksDropsRemovedInode(t *testing.T) {
	fs, _ := newTestFS(t, 4096, testOptions())
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	n := layout.InodesPerBlock // with the root's, one inode more than a block holds
	for i := 0; i < n; i++ {
		if err := fs.Create(fmt.Sprintf("/f%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	fs.mu.Lock()
	dirty, staged, dl, dc := fs.dirtyInodes.n, fs.stagedBlocks(), fs.dirLog.blocks.Blocks(), len(fs.dcache)
	fs.mu.Unlock()
	if dirty != n+1 {
		t.Fatalf("%d dirty inodes, want %d", dirty, n+1)
	}
	if err := fs.Remove("/f00"); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if got := fs.dirtyInodes.n; got != n {
		t.Fatalf("%d dirty inodes after the remove, want %d", got, n)
	}
	want := staged - 1 + fs.dirLog.blocks.Blocks() - dl + len(fs.dcache) - dc
	if got := fs.stagedBlocks(); got != want {
		t.Fatalf("stagedBlocks %d after the remove, want %d", got, want)
	}
}

// TestAllocsRedirtyFlush pins the dirty-inode set and the inode cache at no
// allocation per inode: re-dirtying 2 000 cached inodes and flushing them
// allocates only per partial write (writeBatch's buffer and entry list) and
// per flush. Measured: 7 allocations for 96 inode blocks in 2 partial
// writes. The bound, 10 for the 2 001 inodes, fails if the set's list is
// regrown from nothing on each flush (19).
func TestAllocsRedirtyFlush(t *testing.T) {
	const n, maxAllocs = 2000, 10
	fs, err := Format(writtenDisk(t, 16384), Options{MaxInodes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := fs.Create(fmt.Sprintf("/f%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	// flush re-dirties every cached inode and flushes, returning the
	// allocations and the partial writes that took.
	flush := func() (mallocs uint64, writes int64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		pw := fs.stats.PartialWrites
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fs.icache.each(func(inum uint32, _ *mInode) { fs.markInodeDirty(inum) })
		err := fs.flushStages()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, fs.stats.PartialWrites - pw
	}
	flush() // warms the set's list and the pools
	mallocs, writes := flush()
	t.Logf("%d allocations to re-dirty and flush %d inodes in %d partial writes", mallocs, n+1, writes)
	if mallocs > maxAllocs {
		t.Errorf("re-dirtying and flushing %d cached inodes allocates %d times, want at most %d", n+1, mallocs, maxAllocs)
	}
}
