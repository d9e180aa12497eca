package core

import (
	"repro/internal/layout"
	"repro/internal/obs"
)

// retrySource is the block source of every device walk: each summary is
// read through the media-retry path into the walk's own block buffer.
func (fs *FS) retrySource(s *layout.WalkScratch) layout.BlockSource {
	return func(addr int64) ([]byte, error) { return s.Blk[:], fs.readRetry(addr, s.Blk[:]) }
}

// walkSegment starts a device walk of seg's summary chain.
func (fs *FS) walkSegment(seg int64, s *layout.WalkScratch) layout.SegWalker {
	return layout.WalkSegment(fs.retrySource(s), fs.segStart(seg), fs.segBlocks, s)
}

// walkEnded counts why a walk stopped (log.walk.end.<reason>) and passes
// the walker's End through.
func (fs *FS) walkEnded(end layout.WalkEnd, err error) (layout.WalkEnd, error) {
	if fs.tr != nil {
		fs.tr.Add(obs.CtrLogWalkEndPrefix+end.String(), 1)
	}
	return end, err
}

// logRun is how recovery reads blocks it already knows it needs (mount's
// table load, roll-forward, salvage): adjacent blocks come off the disk in
// one request, into a buffer the run owns and reuses, and are handed out as
// views of it. The disk charges every request half a revolution, so a
// partial write's blocks fetched one at a time cost mostly rotation
// (DESIGN.md §4). The buffer is not pooled: a recovery runs on an FS whose
// pools are still empty, and what it returned to them would stay on the
// mounted FS's heap.
//
// A request that fails decides nothing about its blocks: the run then
// fetches each of them with a request of its own, through the same retry
// ladder, so a fault costs exactly the block it sits on — the block dropped,
// the segment quarantined and the point at which roll-forward degrades are
// those of a reader that never batched.
type logRun struct {
	fs   *FS
	base int64  // address of block 0
	buf  []byte // the run; its capacity is kept from read to read
	each bool   // the request failed: at fetches on demand
}

// read replaces the run with the n blocks starting at addr.
func (r *logRun) read(addr int64, n int) {
	if need := n * layout.BlockSize; cap(r.buf) < need {
		r.buf = make([]byte, need, max(need, 2*cap(r.buf)))
	} else {
		r.buf = r.buf[:need]
	}
	r.base = addr
	r.each = r.fs.readRetry(addr, r.buf) != nil
}

// at returns the block of the run at addr, valid until the next read.
func (r *logRun) at(addr int64) ([]byte, error) {
	o := (addr - r.base) * layout.BlockSize
	blk := r.buf[o : o+layout.BlockSize]
	if r.each {
		if err := r.fs.readRetry(addr, blk); err != nil {
			return nil, err
		}
	}
	return blk, nil
}

// readWanted reads the blocks of one partial write (entries, the first at
// first) whose kind wanted selects — a request per run of adjacent ones, the
// summary the walk reads next (ahead) riding on a run that ends in front of
// it — and hands each to use with its entry index and its block (valid until
// use returns) or why there is none. Roll-forward and salvage both read so.
func (r *logRun) readWanted(first int64, entries []layout.SummaryEntry, ahead func() (int64, bool),
	wanted func(layout.BlockKind) bool, use func(i int, blk []byte, err error)) {
	runEnd := 0 // the run holds the wanted entries before this one
	for i, e := range entries {
		if !wanted(e.Kind) {
			continue
		}
		if i >= runEnd {
			runEnd = i + 1
			for runEnd < len(entries) && wanted(entries[runEnd].Kind) {
				runEnd++
			}
			n := runEnd - i
			if a, ok := ahead(); ok && a == first+int64(runEnd) {
				n++
			}
			r.read(first+int64(i), n)
		}
		blk, err := r.at(first + int64(i))
		use(i, blk, err)
	}
}

// readRuns reads the blocks at addrs, NilAddr skipped, a request per run of
// adjacent addresses, and hands each to use with its index in addrs and its
// block (valid until use returns) or why there is none.
func (r *logRun) readRuns(addrs []int64, use func(k int, blk []byte, err error)) {
	for i := 0; i < len(addrs); {
		if addrs[i] == layout.NilAddr {
			i++
			continue
		}
		j := i + 1
		for j < len(addrs) && addrs[j] == addrs[j-1]+1 {
			j++
		}
		r.read(addrs[i], j-i)
		for k := i; k < j; k++ {
			blk, err := r.at(addrs[k])
			use(k, blk, err)
		}
		i = j
	}
}

// source is retrySource for a walk whose caller reads runs: a summary the
// run already holds (see layout's Ahead) is served from it, anything else
// from the device. A run whose request failed serves nothing — the summary
// that rode on it is read, and fails or not, on its own.
func (r *logRun) source(s *layout.WalkScratch) layout.BlockSource {
	dev := r.fs.retrySource(s)
	return func(addr int64) ([]byte, error) {
		if i := addr - r.base; !r.each && i >= 0 && i < int64(len(r.buf)/layout.BlockSize) {
			return r.at(addr)
		}
		return dev(addr)
	}
}
