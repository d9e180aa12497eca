package core

import (
	"sync"

	"repro/internal/layout"
)

// sumIndex is the verify-on-read index: the checksum each block was written
// with, as its segment summary records it. It is dense — per segment one
// []uint32 of segment-blocks sums followed by their presence bits,
// allocated when the segment first records or harvests a sum and dropped in
// O(1) when the segment is released for reuse — so it never holds more than
// segments × segment-blocks sums, and a fresh mount holds only what
// roll-forward touched. The log writer seeds it one partial write at a
// time, roll-forward and salvage from the summaries they read; a segment
// nobody seeded is harvested from its on-disk chain on first miss, once.
//
// Locking: mu is a leaf below fs.mu, independent of the quarantine lock.
// lookup holds it across a harvest's disk reads, as the map it replaces
// did: harvesting outside the lock waits for the per-lock wait evidence of
// ROADMAP item 4(a)–(b) ("no lock is split on a hunch").
type sumIndex struct {
	mu        sync.Mutex
	segBase   int64
	segBlocks int64
	segs      [][]uint32
	harvested []bool // per segment: its on-disk chain has been walked
}

func newSumIndex(segBase, segBlocks, nsegs int64) *sumIndex {
	return &sumIndex{segBase: segBase, segBlocks: segBlocks, segs: make([][]uint32, nsegs), harvested: make([]bool, nsegs)}
}

// locate splits addr into segment and offset; ok is false outside the
// segment area.
func (x *sumIndex) locate(addr int64) (seg, off int64, ok bool) {
	seg, off = (addr-x.segBase)/x.segBlocks, (addr-x.segBase)%x.segBlocks
	return seg, off, addr >= x.segBase && seg < int64(len(x.segs))
}

// put records the sums of the blocks entries describe, the first of which
// is at addr; a run that does not fit its segment is ignored. Caller holds mu.
func (x *sumIndex) put(addr int64, entries []layout.SummaryEntry) {
	seg, off, ok := x.locate(addr)
	if !ok || off+int64(len(entries)) > x.segBlocks {
		return
	}
	if x.segs[seg] == nil {
		x.segs[seg] = make([]uint32, x.segBlocks+(x.segBlocks+31)/32)
	}
	for i := range entries {
		o := off + int64(i)
		x.segs[seg][o] = entries[i].Sum
		x.segs[seg][x.segBlocks+o/32] |= 1 << (o % 32)
	}
}

// record remembers the checksums one summary gives its blocks, the first of
// which is at addr.
func (x *sumIndex) record(addr int64, entries []layout.SummaryEntry) {
	x.mu.Lock()
	x.put(addr, entries)
	x.mu.Unlock()
}

// lookup returns the checksum recorded for the block at addr. On a miss in
// a segment not yet harvested it calls walk, if any — once per segment
// incarnation, with mu held — to hand add every summary of the segment's
// on-disk chain.
// ok is false when no summary describes the block. err is walk's, a media
// failure reading the chain itself; what it read before that counts, so a
// block's answer does not depend on which lookup ran the harvest.
func (x *sumIndex) lookup(addr int64, walk func(seg int64, add func(int64, []layout.SummaryEntry)) error) (sum uint32, ok bool, err error) {
	seg, off, in := x.locate(addr)
	if !in {
		return 0, false, nil
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	has := func() bool { s := x.segs[seg]; return s != nil && s[x.segBlocks+off/32]&(1<<(off%32)) != 0 }
	if !has() && !x.harvested[seg] && walk != nil {
		x.harvested[seg] = true
		err = walk(seg, x.put)
	}
	if !has() {
		return 0, false, err
	}
	return x.segs[seg][off], true, err
}

// peek is lookup with no walk: ok is false unless the sum is recorded.
func (x *sumIndex) peek(addr int64) (sum uint32, ok bool) {
	sum, ok, _ = x.lookup(addr, nil)
	return sum, ok
}

// drop forgets a segment's sums and harvest state: its next incarnation
// starts clean.
func (x *sumIndex) drop(seg int64) {
	x.mu.Lock()
	x.segs[seg], x.harvested[seg] = nil, false
	x.mu.Unlock()
}

// markAllHarvested records that every chain there is has been read
// (salvage's scan), so no lookup walks one again.
func (x *sumIndex) markAllHarvested() {
	x.mu.Lock()
	for seg := range x.harvested {
		x.harvested[seg] = true
	}
	x.mu.Unlock()
}
