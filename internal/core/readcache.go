package core

import "sync"

// readCache is the clean-block read cache: a bounded FIFO from disk
// address to block contents, guarded by its own leaf lock so readers
// holding only fs.mu.RLock can fill it. A nil *readCache is "no read cache
// configured": get misses, put declines, drop and reset do nothing.
//
// Entries are threaded in insertion order through a slot array (prev/next
// are slot indexes, -1 for none) and drop unlinks its slot onto the free
// list, so the list holds live entries only: eviction takes the head, a
// dropped and re-put address goes to the back, a re-put of a present one
// keeps its place, and there are never more than cap slots.
type readCache struct {
	mu    sync.Mutex
	cap   int
	idx   map[int64]int32 // address -> slot
	slots []rcSlot
	head  int32 // oldest entry, next to be evicted
	tail  int32 // newest entry
	free  int32 // free slots, chained through next
}

type rcSlot struct {
	addr       int64
	buf        []byte
	prev, next int32
}

// newReadCache returns a cache of up to blocks blocks, nil when blocks <= 0.
func newReadCache(blocks int) *readCache {
	if blocks <= 0 {
		return nil
	}
	return &readCache{cap: blocks, idx: make(map[int64]int32), head: -1, tail: -1, free: -1}
}

// get returns the cached contents of addr. The slice is the cache's own
// storage — immutable once stored, so callers may read it after the lock is
// released but must never write it.
func (c *readCache) get(addr int64) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.idx[addr]; ok {
		return c.slots[i].buf, true
	}
	return nil, false
}

// put installs buf — ownership of which the caller surrenders — as the
// contents of addr, evicting the oldest entry when the cache is full. It
// reports whether the cache took the buffer; false (only from a nil cache)
// leaves it the caller's. This is a one-way door: readers copy cached
// slices outside the lock and nothing tracks when the last one is done, so
// a buffer that has entered the cache is immutable forever and dies to the
// garbage collector on eviction or drop, never back to a pool (the PR 1
// aliasing bug class; see DESIGN.md).
func (c *readCache) put(addr int64, buf []byte) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.idx[addr]; ok {
		c.slots[i].buf = buf
		return true
	}
	if len(c.idx) == c.cap {
		c.remove(c.head)
	}
	i := c.free
	if i >= 0 {
		c.free = c.slots[i].next
	} else {
		i = int32(len(c.slots))
		c.slots = append(c.slots, rcSlot{})
	}
	c.slots[i] = rcSlot{addr: addr, buf: buf, prev: c.tail, next: -1}
	if c.tail >= 0 {
		c.slots[c.tail].next = i
	} else {
		c.head = i
	}
	c.tail = i
	c.idx[addr] = i
	return true
}

// drop forgets addr (the address is being reused for different content).
func (c *readCache) drop(addr int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.idx[addr]; ok {
		c.remove(i)
	}
}

// remove unlinks slot i from the FIFO and frees it. Caller holds mu.
func (c *readCache) remove(i int32) {
	s := c.slots[i]
	delete(c.idx, s.addr)
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
	c.slots[i] = rcSlot{next: c.free}
	c.free = i
}

// reset empties the cache (salvage rebuilds the image under it).
func (c *readCache) reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.idx)
	c.slots, c.head, c.tail, c.free = nil, -1, -1, -1
}
