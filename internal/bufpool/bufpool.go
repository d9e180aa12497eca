// Package bufpool provides bounded freelists of fixed-size byte
// buffers for the file system's hot paths.
//
// The paper's write-cost accounting (Section 3.4) is all about not
// paying for work twice; on a modern runtime the analogous waste is
// allocating (and garbage-collecting) a fresh block buffer for every
// read, write and cleaner pass. A Pool is a deliberately simple
// mutex-guarded LIFO stack — not a sync.Pool — so behaviour is
// deterministic, survives GC cycles, and its capacity bounds the idle
// memory it can pin.
//
// Ownership discipline (see DESIGN.md "Buffer ownership and pooling"):
// a buffer obtained from Get is exclusively the caller's until it is
// either returned with Put or handed to a component that takes
// ownership (the read cache, the dirty-block cache). A buffer must
// never be Put while any other reference to it can still be read —
// returning a buffer that a reader may still be copying out of is the
// aliasing bug class this package exists to make auditable.
package bufpool

import "sync"

// Stats counts pool traffic. Gets = Hits + Misses; Puts = Returns
// accepted; Drops counts Put calls rejected because the pool was full
// or the buffer had the wrong shape.
type Stats struct {
	Gets   int64
	Hits   int64
	Misses int64
	Puts   int64
	Drops  int64
}

// Pool is a bounded freelist of equally sized byte buffers.
type Pool struct {
	size int
	max  int

	mu    sync.Mutex
	free  [][]byte
	stats Stats
}

// New returns a pool of buffers of exactly size bytes, keeping at most
// max idle buffers. max <= 0 disables recycling: Get always allocates
// and Put always drops, which preserves the call-site structure while
// turning pooling off.
func New(size, max int) *Pool {
	if size <= 0 {
		panic("bufpool: non-positive buffer size")
	}
	return &Pool{size: size, max: max}
}

// Size returns the byte length of every buffer this pool vends.
func (p *Pool) Size() int { return p.size }

// Get returns a buffer of the pool's size. Contents are undefined: the
// buffer may be dirty from a previous use, so callers that need zeroes
// must clear it (or use GetZero).
func (p *Pool) Get() []byte {
	p.mu.Lock()
	p.stats.Gets++
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.stats.Hits++
		p.mu.Unlock()
		return b
	}
	p.stats.Misses++
	p.mu.Unlock()
	return make([]byte, p.size)
}

// GetZero is Get with the buffer cleared.
func (p *Pool) GetZero() []byte {
	b := p.Get()
	clear(b)
	return b
}

// Put returns a buffer to the freelist. Buffers of the wrong shape and
// buffers beyond the capacity bound are dropped (counted in
// Stats.Drops), never kept: a wrong-size buffer in the freelist would
// surface as corruption far from the bug. Put(nil) is a no-op so
// callers can Put unconditionally on cleanup paths.
func (p *Pool) Put(b []byte) {
	if b == nil {
		return
	}
	p.mu.Lock()
	if len(b) != p.size || cap(b) != p.size || len(p.free) >= p.max {
		p.stats.Drops++
		p.mu.Unlock()
		return
	}
	p.stats.Puts++
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Idle returns how many buffers are currently parked in the freelist.
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// RunPool recycles multi-block run buffers (coalesced reads, cleaner
// segment reads, the deep log verification) in power-of-two size
// classes. A Get for n blocks draws from the class that fits it and
// returns a prefix slice; Put recovers the class from the buffer's
// capacity. Runs larger than the largest class fall through to plain
// allocation.
type RunPool struct {
	blockSize int
	classes   []*Pool // class i vends (1<<i)*blockSize-byte buffers
}

// NewRun returns a run pool for runs of up to maxBlocks blocks of
// blockSize bytes each, keeping at most perClass idle buffers per
// power-of-two size class. The largest class is rounded up so a
// maxBlocks-sized run is always poolable even when maxBlocks is not a
// power of two.
func NewRun(blockSize, maxBlocks, perClass int) *RunPool {
	if blockSize <= 0 {
		panic("bufpool: non-positive block size")
	}
	p := &RunPool{blockSize: blockSize}
	for blocks := 1; ; blocks <<= 1 {
		p.classes = append(p.classes, New(blocks*blockSize, perClass))
		if blocks >= maxBlocks {
			break
		}
	}
	return p
}

// classFor returns the index of the smallest class holding blocks, or
// -1 when the run exceeds every class.
func (p *RunPool) classFor(blocks int) int {
	for i, c := range p.classes {
		if c.size >= blocks*p.blockSize {
			return i
		}
	}
	return -1
}

// Get returns a buffer of exactly blocks*blockSize bytes (undefined
// contents), drawn from the smallest size class that fits.
func (p *RunPool) Get(blocks int) []byte {
	if blocks <= 0 {
		return nil
	}
	i := p.classFor(blocks)
	if i < 0 {
		return make([]byte, blocks*p.blockSize)
	}
	return p.classes[i].Get()[:blocks*p.blockSize]
}

// Put returns a run buffer. The class is recovered from the buffer's
// capacity, so only buffers that came from Get (re-extended to their
// full capacity) are accepted; anything else is dropped.
func (p *RunPool) Put(b []byte) {
	if b == nil {
		return
	}
	c := cap(b)
	if c%p.blockSize != 0 {
		return
	}
	for _, cl := range p.classes {
		if cl.size == c {
			cl.Put(b[:c])
			return
		}
	}
}

// Stats sums the per-class counters.
func (p *RunPool) Stats() Stats {
	var s Stats
	for _, c := range p.classes {
		cs := c.Stats()
		s.Gets += cs.Gets
		s.Hits += cs.Hits
		s.Misses += cs.Misses
		s.Puts += cs.Puts
		s.Drops += cs.Drops
	}
	return s
}

// Free is the typed sibling of Pool: a bounded, mutex-guarded LIFO
// freelist for reusable scratch values that are not byte buffers —
// decoded-summary scratch and the like. Unlike
// Pool it cannot validate shape, so the same ownership discipline
// applies: a value obtained from Get is exclusively the caller's until
// Put, and nothing the value references may be retained past Put.
type Free[T any] struct {
	mu    sync.Mutex
	free  []T
	max   int
	stats Stats
}

// NewFree returns a freelist keeping at most max idle values. max <= 0
// disables recycling, preserving call-site structure with pooling off.
func NewFree[T any](max int) *Free[T] {
	return &Free[T]{max: max}
}

// Get pops a parked value. ok is false when the freelist is empty and
// the caller must construct a fresh value.
func (f *Free[T]) Get() (v T, ok bool) {
	f.mu.Lock()
	f.stats.Gets++
	if n := len(f.free); n > 0 {
		v = f.free[n-1]
		var zero T
		f.free[n-1] = zero
		f.free = f.free[:n-1]
		f.stats.Hits++
		f.mu.Unlock()
		return v, true
	}
	f.stats.Misses++
	f.mu.Unlock()
	return v, false
}

// Put parks a value for reuse; values beyond the capacity bound are
// dropped to the GC.
func (f *Free[T]) Put(v T) {
	f.mu.Lock()
	if len(f.free) >= f.max {
		f.stats.Drops++
		f.mu.Unlock()
		return
	}
	f.stats.Puts++
	f.free = append(f.free, v)
	f.mu.Unlock()
}

// Stats snapshots the freelist counters.
func (f *Free[T]) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}
