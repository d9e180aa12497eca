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
