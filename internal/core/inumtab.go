package core

import (
	"math/bits"
	"slices"
)

// inodePage is how many inums the inode cache's first page covers: 512
// bytes, what the hash map it replaced took for a file system of few files.
const inodePage = 64

// inodeTable is the inode cache, indexed by inum like the inode map
// (Section 3.1). Page k covers inodePage·2^k inums from inodePage·(2^k−1),
// made when one of them is first cached: memory follows the highest inum in
// use within a factor of two, not MaxInodes, and filling n inums allocates
// O(log n) times. Readers under mu.RLock hold FS.icacheMu.
type inodeTable struct {
	pages [][]*mInode // nil: no inum of the page cached yet
}

// pageOf locates inum: its page and its index there.
func pageOf(inum uint32) (p, i int) {
	p = bits.Len32(inum/inodePage+1) - 1
	return p, int(inum) - inodePage*(1<<p-1)
}

func (t *inodeTable) get(inum uint32) *mInode {
	if p, i := pageOf(inum); p < len(t.pages) && t.pages[p] != nil {
		return t.pages[p][i]
	}
	return nil
}

func (t *inodeTable) put(inum uint32, mi *mInode) {
	p, i := pageOf(inum)
	if p >= len(t.pages) {
		t.pages = append(t.pages, make([][]*mInode, p+1-len(t.pages))...)
	}
	if t.pages[p] == nil {
		t.pages[p] = make([]*mInode, inodePage<<p)
	}
	t.pages[p][i] = mi
}

// each calls fn on every cached inode, ascending by inum.
func (t *inodeTable) each(fn func(inum uint32, mi *mInode)) {
	for p, page := range t.pages {
		for i, mi := range page {
			if mi != nil {
				fn(uint32(inodePage*(1<<p-1)+i), mi)
			}
		}
	}
}

// inumSet is a set of inums: a membership bitmap grown to the highest inum
// added, the members in the order they were added (plus the stale and
// repeated entries deletes and re-adds leave, which sorted drops), and n,
// their exact count.
type inumSet struct {
	bits []uint64
	list []uint32
	n    int
}

func (s *inumSet) has(inum uint32) bool {
	w := int(inum / 64)
	return w < len(s.bits) && s.bits[w]&(1<<(inum%64)) != 0
}

// add puts inum in the set and reports whether it was new.
func (s *inumSet) add(inum uint32) bool {
	if s.has(inum) {
		return false
	}
	if w := int(inum / 64); w >= len(s.bits) {
		s.bits = append(s.bits, make([]uint64, w+1-len(s.bits))...)
	}
	s.bits[inum/64] |= 1 << (inum % 64)
	s.list = append(s.list, inum)
	s.n++
	return true
}

func (s *inumSet) del(inum uint32) {
	if s.has(inum) {
		s.bits[inum/64] &^= 1 << (inum % 64)
		s.n--
	}
}

// sorted returns the members ascending, in the set's own list, so that the
// request order (and simulated time) is not the order they were added in.
func (s *inumSet) sorted() []uint32 {
	slices.Sort(s.list)
	out := s.list[:0]
	for _, inum := range s.list {
		if s.has(inum) && (len(out) == 0 || out[len(out)-1] != inum) {
			out = append(out, inum)
		}
	}
	s.list = out
	return out
}

// clear empties the set, leaving its list's array to the caller of sorted
// (a flush's inode blocks view it until the flush drains); reuse returns it
// unless the set has started another since.
func (s *inumSet) clear() {
	for _, inum := range s.list {
		s.del(inum)
	}
	s.list = nil
}

func (s *inumSet) reuse(list []uint32) {
	if s.list == nil {
		s.list = list[:0]
	}
}
