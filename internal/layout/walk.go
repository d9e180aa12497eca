package layout

// The summary-chain walk. Every partial-segment write is led by a summary
// block, so a segment is a chain of summaries, each saying how many blocks
// follow it, and the log is a thread of such chains linked by NextSeg. This
// file is the only place that decides where a chain ends; the cleaner,
// roll-forward, verify-on-read, lfsck, salvage and lfsdump all walk through
// it and keep only their own policy for each end reason (DESIGN.md,
// "Summary chain walk").

// BlockSource returns the BlockSize bytes stored at a disk address. The
// slice need only stay valid until the next call, so a source may fill one
// reused buffer (WalkScratch.Blk) or hand out views of a larger image — a
// whole segment (ImageSource), or a run of blocks a caller read in one
// request because a walker's Ahead told it the next summary was among them.
type BlockSource func(addr int64) ([]byte, error)

// ImageSource is the BlockSource over an in-memory copy of the blocks
// starting at address base (the cleaner's whole-segment read).
func ImageSource(base int64, image []byte) BlockSource {
	return func(addr int64) ([]byte, error) {
		o := (addr - base) * BlockSize
		return image[o : o+BlockSize], nil
	}
}

// WalkScratch is the memory a walk works in, reusable from walk to walk:
// the Summary each block decodes into (what the caller reads while Next
// reports true) and a block buffer for sources that read from a device.
type WalkScratch struct {
	Summary
	Blk [BlockSize]byte
}

// NewWalkScratch returns a scratch whose entry slice is already grown to
// the largest summary, so walking with it allocates nothing.
func NewWalkScratch() *WalkScratch {
	return &WalkScratch{Summary: Summary{Entries: make([]SummaryEntry, 0, MaxSummaryEntries)}}
}

// WalkEnd says why a summary-chain walk stopped.
type WalkEnd uint8

// End-of-chain reasons. The first four come from StepSummary and apply to
// every walk; the rest belong to one driver each.
const (
	// WalkOpen is the zero value: the chain has not ended. A driver's End
	// reports it when its caller left the loop early.
	WalkOpen WalkEnd = iota
	// EndSegmentFull: no room is left for a summary plus one block.
	EndSegmentFull
	// EndDecode: the block is not a valid summary (magic, checksum or
	// entry count) — the usual end, at space never written or torn.
	EndDecode
	// EndEmpty: a valid summary that describes zero blocks.
	EndEmpty
	// EndOverrun: the described blocks would escape the segment.
	EndOverrun
	// EndMedia: the source could not supply the block; End returns its
	// error too. Whether the chain continued is unknowable.
	EndMedia
	// EndSeqRegress (segment chain): WriteSeq did not rise above the
	// previous summary's — the stale tail of a reused segment, whose
	// described blocks may since have been overwritten.
	EndSeqRegress
	// EndSeqMismatch (log thread): WriteSeq is not the next in sequence.
	EndSeqMismatch
	// EndNoNextSeg (log thread): the segment is full and names no successor.
	EndNoNextSeg
	// EndSeqBound (log thread): the caller's exclusive WriteSeq bound.
	EndSeqBound

	NumWalkEnds
)

var walkEndNames = [NumWalkEnds]string{
	"aborted", "segment-full", "decode", "empty", "overrun", "media",
	"seq-regress", "seq-mismatch", "no-next-seg", "seq-bound",
}

// String returns the reason's stable name, the suffix of the
// log.walk.end.<reason> counters.
func (e WalkEnd) String() string { return walkEndNames[e] }

// StepSummary is the one decode-and-bounds-check of a summary chain: it
// reads the block at offset off of the segment starting at address start,
// decodes it into s and checks that the blocks it describes fit in the
// segment's segBlocks. It returns WalkOpen when s holds a summary the
// chain continues through, otherwise why the chain ends here (s is then
// not meaningful). The WriteSeq rules are the drivers'.
func StepSummary(src BlockSource, start, off, segBlocks int64, s *WalkScratch) (WalkEnd, error) {
	if off > segBlocks-2 {
		return EndSegmentFull, nil
	}
	buf, err := src(start + off)
	if err != nil {
		return EndMedia, err
	}
	if len(buf) != BlockSize || DecodeSummaryInto(buf, &s.Summary) != nil {
		return EndDecode, nil
	}
	n := int64(len(s.Entries))
	if n == 0 {
		return EndEmpty, nil
	}
	if off+1+n > segBlocks {
		return EndOverrun, nil
	}
	return WalkOpen, nil
}

// SegWalker walks one segment's summary chain from offset 0, requiring
// WriteSeq to increase strictly:
//
//	w := WalkSegment(src, start, segBlocks, s)
//	for w.Next() {
//		// s is the summary at w.Off(); its blocks start at w.DataAddr()
//	}
//	end, err := w.End()
type SegWalker struct {
	src       BlockSource
	start     int64
	segBlocks int64
	sum       *WalkScratch
	off       int64 // offset of the current summary, or where the chain ended
	span      int64 // blocks the current summary occupies (0 before the first)
	prevSeq   uint64
	end       WalkEnd
	err       error
}

// WalkSegment starts a walk of the segment at address start. Each Next
// decodes into s, which the caller must leave intact between calls.
func WalkSegment(src BlockSource, start, segBlocks int64, s *WalkScratch) SegWalker {
	return SegWalker{src: src, start: start, segBlocks: segBlocks, sum: s}
}

// Next advances to the next summary of the chain, reporting false once the
// chain has ended.
func (w *SegWalker) Next() bool {
	if w.end != WalkOpen {
		return false
	}
	w.off += w.span
	end, err := StepSummary(w.src, w.start, w.off, w.segBlocks, w.sum)
	if end == WalkOpen && w.span > 0 && w.sum.WriteSeq <= w.prevSeq {
		end = EndSeqRegress
	}
	if end != WalkOpen {
		w.end, w.err, w.span = end, err, 0
		return false
	}
	w.prevSeq = w.sum.WriteSeq
	w.span = 1 + int64(len(w.sum.Entries))
	return true
}

// Ahead returns the address the next call to Next will ask the source for,
// or false when that call will read nothing. A caller about to read the
// blocks the current summary describes can take the next summary in the same
// request (when the address is adjacent) without reading a block the walk
// itself would not have read.
func (w *SegWalker) Ahead() (int64, bool) {
	off := w.off + w.span
	if w.end != WalkOpen || off > w.segBlocks-2 {
		return 0, false
	}
	return w.start + off, true
}

// Off returns the segment offset of the current summary; after the walk,
// the offset at which the chain ended (0 if no summary was valid).
func (w *SegWalker) Off() int64 { return w.off }

// DataAddr returns the address of the first block the current summary
// describes; entry i is the block at DataAddr()+i.
func (w *SegWalker) DataAddr() int64 { return w.start + w.off + 1 }

// End returns why the walk stopped and, for EndMedia, the source's error.
func (w *SegWalker) End() (WalkEnd, error) { return w.end, w.err }

// LogPos is a position in the threaded log: the segment and offset of the
// next partial write, the segment the log moves to after this one, and the
// WriteSeq that write must carry. A checkpoint records one; roll-forward
// ends at one.
type LogPos struct {
	Seg      int64
	Off      int64
	NextSeg  int64
	WriteSeq uint64
}

// ThreadWalker walks the log thread from a checkpointed position: each
// summary must carry exactly the next WriteSeq, and a full segment hops to
// the NextSeg its last summary named. It is driven like SegWalker.
type ThreadWalker struct {
	src       BlockSource
	base      int64 // address of segment 0
	segBlocks int64
	sum       *WalkScratch
	pos       LogPos
	bound     uint64
	span      int64 // blocks the current summary occupies (0 when none)
	end       WalkEnd
	err       error
}

// WalkThread starts a walk at pos over segments of segBlocks blocks laid
// out from address base. The walk stops before a summary whose WriteSeq
// would reach bound (math.MaxUint64 for none).
func WalkThread(src BlockSource, base, segBlocks int64, pos LogPos, bound uint64, s *WalkScratch) ThreadWalker {
	return ThreadWalker{src: src, base: base, segBlocks: segBlocks, sum: s, pos: pos, bound: bound}
}

// ahead steps past the summary the caller has just consumed and returns
// where the thread continues: the position of the next summary to read, or
// why there is none. Stepping on the way in rather than on the way out means
// a caller that abandons a summary half-applied still sees Pos in front of it.
func (w *ThreadWalker) ahead() (LogPos, WalkEnd) {
	p := w.pos
	if w.span > 0 {
		p.Off += w.span
		p.NextSeg = w.sum.NextSeg
		p.WriteSeq++
	}
	if p.Off > w.segBlocks-2 {
		if p.NextSeg == NilAddr {
			return p, EndNoNextSeg
		}
		p.Seg, p.Off = p.NextSeg, 0
	}
	if p.WriteSeq >= w.bound {
		return p, EndSeqBound
	}
	return p, WalkOpen
}

// Next advances to the next summary of the thread, reporting false once
// the thread has ended.
func (w *ThreadWalker) Next() bool {
	if w.end != WalkOpen {
		return false
	}
	w.pos, w.end = w.ahead()
	w.span = 0
	if w.end != WalkOpen {
		return false
	}
	end, err := StepSummary(w.src, w.base+w.pos.Seg*w.segBlocks, w.pos.Off, w.segBlocks, w.sum)
	if end == WalkOpen && w.sum.WriteSeq != w.pos.WriteSeq {
		end = EndSeqMismatch
	}
	if end != WalkOpen {
		w.end, w.err = end, err
		return false
	}
	w.span = 1 + int64(len(w.sum.Entries))
	return true
}

// Ahead is SegWalker.Ahead for the thread: the address the next call to Next
// will ask the source for (in the next segment when this one is full), or
// false when it will read nothing.
func (w *ThreadWalker) Ahead() (int64, bool) {
	if w.end != WalkOpen {
		return 0, false
	}
	p, end := w.ahead()
	if end != WalkOpen {
		return 0, false
	}
	return w.base + p.Seg*w.segBlocks + p.Off, true
}

// Pos returns the position of the current summary; after the walk, the
// position at which the thread ended — where the log resumes.
func (w *ThreadWalker) Pos() LogPos { return w.pos }

// DataAddr returns the address of the first block the current summary
// describes.
func (w *ThreadWalker) DataAddr() int64 {
	return w.base + w.pos.Seg*w.segBlocks + w.pos.Off + 1
}

// End returns why the walk stopped and, for EndMedia, the source's error.
func (w *ThreadWalker) End() (WalkEnd, error) { return w.end, w.err }
