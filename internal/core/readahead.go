package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/disk"
	"repro/internal/layout"
)

// raMaxBlocks caps one read-ahead request: the blocks the caller asked for
// plus those fetched past them, 64 KB in all.
const raMaxBlocks = 16

// readAhead is the read-ahead window: the prediction of the block a stream
// that continues reads next, and one run of blocks fetched past a request,
// held until a read asks for them (and verifies them, like any block from
// the device). Readers holding only fs.mu.RLock load and drain it; drop runs
// under fs.mu. mu is a leaf below fs.mu: only the device's own lock is taken
// under it, across load's one request. The window owns buf and never hands
// out a view of it: readers copy out under mu.
type readAhead struct {
	mu           sync.Mutex
	next         blockKey     // the predicted block; inum 0 (no file) predicts nothing
	base         int64        // address of buf's first block
	held         uint16       // bit i: buf holds the block at base+i
	buf          []byte       // raMaxBlocks blocks, allocated by the first load
	blocks, hits atomic.Int64 // Stats.ReadAheadBlocks and Stats.ReadAheadHits
}

// read copies the longest run of held blocks that starts at addr, up to n,
// into dst and returns its length. Either way it reports whether k, the
// block at addr, was the predicted one, and makes next the prediction.
func (ra *readAhead) read(addr int64, n int, k, next blockKey, dst []byte) (got int, predicted bool) {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	predicted, ra.next = ra.next == k, next
	for i := addr - ra.base; got < n && i >= 0 && i < raMaxBlocks && ra.held&(1<<i) != 0; i++ {
		copy(dst[got*layout.BlockSize:], ra.buf[i*layout.BlockSize:(i+1)*layout.BlockSize])
		got++
	}
	ra.hits.Add(int64(got))
	return got, predicted
}

// load reads the n blocks at addr in one device request, copies the first
// req (the blocks asked for) into dst and holds the rest; on an error it
// holds nothing. Holding mu across the request spares a second buffer.
func (ra *readAhead) load(dev *disk.Disk, addr int64, req, n int, dst []byte) error {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	if ra.buf == nil {
		ra.buf = make([]byte, raMaxBlocks*layout.BlockSize)
	}
	ra.base, ra.held = addr, 0
	if err := dev.Read(addr, ra.buf[:n*layout.BlockSize]); err != nil {
		return err
	}
	copy(dst, ra.buf[:req*layout.BlockSize])
	ra.held = uint16(1<<n-1) &^ uint16(1<<req-1)
	ra.blocks.Add(int64(n - req))
	return nil
}

// drop forgets the blocks at [addr, addr+n): they died, or their addresses
// are being written again.
func (ra *readAhead) drop(addr, n int64) {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	if lo, hi := max(addr-ra.base, 0), min(addr+n-ra.base, raMaxBlocks); lo < hi {
		ra.held &^= uint16(1<<hi - 1<<lo)
	}
}
