package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/disk"
	"repro/internal/layout"
)

// readAhead is the read-ahead window: the prediction of the block a stream
// that continues reads next, and the blocks fetched past a request that no
// read has taken yet, held until one does (and verifies them, like any block
// from the device). The held blocks are one run of consecutive addresses, at
// most a segment (readAheadRun stops at the segment's end), in a buffer sized
// to the request that fetched them: a read takes blocks off the run's front,
// a drop cuts it, and once nothing is left the window lets the buffer go, so
// it holds memory only while a stream has blocks in it to read. Readers
// holding only fs.mu.RLock load and drain it; drop runs under fs.mu. mu is a
// leaf below fs.mu: only the device's own lock is taken under it, across
// load's one request, which so comes before or after any drop whole. The
// window never hands out a view of buf: readers copy out under mu.
type readAhead struct {
	mu           sync.Mutex
	next         blockKey     // the predicted block; inum 0 (no file) predicts nothing
	base         int64        // address of buf's first block
	buf          []byte       // the held blocks, nil when there are none
	blocks, hits atomic.Int64 // Stats.ReadAheadBlocks and Stats.ReadAheadHits
}

// read copies the longest run of held blocks that starts at addr, up to n,
// into dst and returns its length; the window forgets them and any it holds
// before them, which the stream has passed. Either way it reports whether k,
// the block at addr, was the predicted one, and makes next the prediction.
func (ra *readAhead) read(addr int64, n int, k, next blockKey, dst []byte) (got int, predicted bool) {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	predicted, ra.next = ra.next == k, next
	if i := addr - ra.base; i >= 0 && i < ra.held() {
		got = copy(dst[:n*layout.BlockSize], ra.buf[i*layout.BlockSize:]) / layout.BlockSize
		ra.forget(i + int64(got))
	}
	ra.hits.Add(int64(got))
	return got, predicted
}

// load reads the n blocks at addr in one device request into a buffer of its
// own, copies the first req (the blocks asked for) into dst and holds the
// rest in place of what the window held; on an error it holds nothing.
func (ra *readAhead) load(dev *disk.Disk, addr int64, req, n int, dst []byte) error {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	ra.buf = nil
	buf := make([]byte, n*layout.BlockSize)
	if err := dev.Read(addr, buf); err != nil {
		return err
	}
	copy(dst, buf[:req*layout.BlockSize])
	ra.base, ra.buf = addr+int64(req), buf[req*layout.BlockSize:]
	ra.blocks.Add(int64(n - req))
	return nil
}

// drop forgets the blocks at [addr, addr+n): they died, or their addresses
// are being written again. A hole in the held run ends it there.
func (ra *readAhead) drop(addr, n int64) {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	switch lo, hi := addr-ra.base, addr+n-ra.base; {
	case hi <= 0 || lo >= ra.held():
	case lo <= 0:
		ra.forget(hi)
	default:
		ra.buf = ra.buf[:lo*layout.BlockSize]
	}
}

// held is the number of blocks the window holds. Caller holds mu.
func (ra *readAhead) held() int64 { return int64(len(ra.buf) / layout.BlockSize) }

// forget lets go of the first k held blocks, and of the buffer with the
// last. Caller holds mu.
func (ra *readAhead) forget(k int64) {
	if k >= ra.held() {
		ra.buf = nil
		return
	}
	ra.base, ra.buf = ra.base+k, ra.buf[k*layout.BlockSize:]
}
