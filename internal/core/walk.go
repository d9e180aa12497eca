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

// logRun is how recovery reads blocks it knows it needs (DESIGN.md §4):
// planReads' requests, into a buffer the run owns and reuses, each block
// handed out as a view of it. The buffer is not pooled: a recovery runs on an
// FS whose pools are still empty, and what it returned to them would stay on
// the mounted FS's heap.
type logRun struct {
	fs   *FS
	base int64   // address of block 0
	buf  []byte  // the last request, empty if it failed; its capacity is kept
	want []int64 // readWanted's addresses, kept from call to call
}

// read replaces the run with the n blocks starting at addr.
func (r *logRun) read(addr, n int64) error {
	if need := int(n) * layout.BlockSize; cap(r.buf) < need {
		r.buf = make([]byte, need, max(need, 2*cap(r.buf)))
	} else {
		r.buf = r.buf[:need]
	}
	r.base = addr
	err := r.fs.readRetry(addr, r.buf)
	if err != nil {
		r.buf = r.buf[:0]
	}
	return err
}

// at returns the block at addr if the last request holds it, else nil.
func (r *logRun) at(addr int64) []byte {
	if i := addr - r.base; i >= 0 && i < int64(len(r.buf)/layout.BlockSize) {
		return r.buf[i*layout.BlockSize : (i+1)*layout.BlockSize]
	}
	return nil
}

// readRuns reads the blocks at addrs as planReads plans them and hands each
// to use with its index in addrs and its block (valid until use returns) or
// why there is none.
func (r *logRun) readRuns(addrs []int64, gap, ahead int64, use func(k int, blk []byte, err error)) {
	planReads(addrs, gap, ahead, r.fs.segBlocks, r.read, func(k int, err error) { use(k, r.at(addrs[k]), err) })
}

// readWanted is readRuns over the blocks of one partial write (entries, the
// first at first) whose kind wanted selects, by entry index, through no gap:
// the blocks between are data, which roll-forward and salvage's scan skip.
func (r *logRun) readWanted(first int64, entries []layout.SummaryEntry, ahead int64,
	wanted func(layout.BlockKind) bool, use func(i int, blk []byte, err error)) {
	r.want = r.want[:0]
	for i, e := range entries {
		if wanted(e.Kind) {
			r.want = append(r.want, first+int64(i))
		}
	}
	r.readRuns(r.want, 0, ahead, func(k int, blk []byte, err error) { use(int(r.want[k]-first), blk, err) })
}

// source is retrySource for a walk whose caller reads runs: a summary that
// rode on the last request (see layout's Ahead) is served from it, anything
// else — one that rode on a request that failed, too — from the device.
func (r *logRun) source(s *layout.WalkScratch) layout.BlockSource {
	dev := r.fs.retrySource(s)
	return func(addr int64) ([]byte, error) {
		if blk := r.at(addr); blk != nil {
			return blk, nil
		}
		return dev(addr)
	}
}

// planReads is the run planner of every log read. want holds the addresses a
// reader wants, ascending; NilAddr is skipped, one not above the one before
// starts a new request. A request of at most limit blocks (a segment, so a
// sweep's buffer is no larger than a partial write's) reads through gaps of
// up to gap unwanted blocks; the next summary (ahead, NilAddr if none) rides
// on one that ends within gap blocks of it. read issues a request; got hears
// how each wanted block came off the disk. A failed request decides nothing:
// each wanted block is read again alone, so a fault costs exactly its block.
func planReads(want []int64, gap, ahead, limit int64, read func(addr, n int64) error, got func(k int, err error)) {
	for i := 0; i < len(want); {
		if want[i] == layout.NilAddr {
			i++
			continue
		}
		j, end := i+1, want[i]+1 // the request holds want[i:j] and ends at end
		for j < len(want) && want[j] >= end && want[j]-end <= gap && want[j]+1-want[i] <= limit {
			end = want[j] + 1
			j++
		}
		n := end - want[i]
		if ahead >= end && ahead-end <= gap && ahead+1-want[i] <= limit {
			n = ahead + 1 - want[i]
		}
		err := read(want[i], n)
		for k := i; k < j; k++ {
			if err == nil {
				got(k, nil)
			} else {
				got(k, read(want[k], 1))
			}
		}
		i = j
	}
}
