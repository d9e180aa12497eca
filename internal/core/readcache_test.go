package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/layout"
)

// order lists the cached addresses oldest first, checking the links both
// ways and the slot bound on the way.
func (c *readCache) order(t *testing.T) []int64 {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int64
	prev := int32(-1)
	for i := c.head; i >= 0; prev, i = i, c.slots[i].next {
		s := c.slots[i]
		if s.prev != prev || c.idx[s.addr] != i || len(out) > len(c.idx) {
			t.Fatalf("slot %d (addr %d): prev %d want %d, idx %d, after %v", i, s.addr, s.prev, prev, c.idx[s.addr], out)
		}
		out = append(out, s.addr)
	}
	if c.tail != prev || len(out) != len(c.idx) || len(c.slots) > c.cap {
		t.Fatalf("tail %d want %d; %d linked, %d indexed; %d slots for cap %d", c.tail, prev, len(out), len(c.idx), len(c.slots), c.cap)
	}
	return out
}

// TestRcacheInvalidateRecache pins the FIFO-desync bug: dropping a cached
// address used to leave it in the eviction order, so re-caching it queued a
// second entry and the stale one evicted the live block early.
func TestRcacheInvalidateRecache(t *testing.T) {
	c := newReadCache(2)
	blk := func(b byte) []byte { return bytes.Repeat([]byte{b}, 16) }

	c.put(100, blk('A'))
	c.put(101, blk('B'))
	c.drop(100)
	if _, ok := c.get(100); ok {
		t.Fatal("dropped block still served from cache")
	}
	c.put(100, blk('C')) // re-cache the dropped address
	c.put(102, blk('D')) // cache full: must evict 101, the oldest live block
	if _, ok := c.get(101); ok {
		t.Fatal("oldest live block survived eviction")
	}
	if got, ok := c.get(100); !ok || got[0] != 'C' {
		t.Fatalf("re-cached block evicted early by its stale entry (ok=%v)", ok)
	}
	if _, ok := c.get(102); !ok {
		t.Fatal("newly cached block missing")
	}
	c.drop(9999) // not cached: nothing to unlink
	if got := c.order(t); len(got) != 2 || got[0] != 100 || got[1] != 102 {
		t.Fatalf("order %v, want [100 102]", got)
	}
}

// TestReadCacheMatchesSliceModel drives the cache and a slice (oldest
// first) with the same random puts and drops and compares order, membership
// and contents after every step: FIFO over live entries, a re-put of a
// present address keeps its place, drop + put goes to the back.
func TestReadCacheMatchesSliceModel(t *testing.T) {
	type ent struct {
		addr int64
		val  byte
	}
	for capacity := 1; capacity <= 6; capacity++ {
		rng := rand.New(rand.NewSource(int64(capacity)))
		c := newReadCache(capacity)
		var model []ent
		find := func(addr int64) int {
			for i, e := range model {
				if e.addr == addr {
					return i
				}
			}
			return -1
		}
		for step := 0; step < 4000; step++ {
			addr, val := int64(rng.Intn(2*capacity+2)), byte(step)
			at := find(addr)
			switch {
			case rng.Intn(3) == 0:
				c.drop(addr)
				if at >= 0 {
					model = append(model[:at], model[at+1:]...)
				}
			case at >= 0:
				c.put(addr, []byte{val})
				model[at].val = val
			default:
				c.put(addr, []byte{val})
				if len(model) == capacity {
					model = model[1:]
				}
				model = append(model, ent{addr, val})
			}
			got := c.order(t)
			if len(got) != len(model) {
				t.Fatalf("cap %d step %d: cache holds %v, model %v", capacity, step, got, model)
			}
			for i, e := range model {
				if b, ok := c.get(e.addr); got[i] != e.addr || !ok || b[0] != e.val {
					t.Fatalf("cap %d step %d: position %d holds %d, model %v", capacity, step, i, got[i], e)
				}
			}
		}
		c.reset()
		if got := c.order(t); len(got) != 0 {
			t.Fatalf("cap %d: %v left after reset", capacity, got)
		}
	}
}

// TestReadCacheBounded is the bound ROADMAP 2(c) asked of the tombstone map
// this cache replaced: put/drop cycles cannot grow anything.
func TestReadCacheBounded(t *testing.T) {
	c := newReadCache(4)
	buf := make([]byte, 16)
	for i := 0; i < 10000; i++ {
		addr := int64(500 + i%8)
		c.put(addr, buf)
		c.drop(addr)
	}
	if len(c.slots) > 4 || len(c.idx) != 0 || len(c.order(t)) != 0 {
		t.Fatalf("%d slots, %d indexed after 10000 put/drop cycles in a 4-block cache", len(c.slots), len(c.idx))
	}
}

// A nil *readCache is "no read cache configured".
func TestReadCacheNil(t *testing.T) {
	for _, blocks := range []int{0, -3} {
		if c := newReadCache(blocks); c != nil {
			t.Fatalf("newReadCache(%d) = %v, want nil", blocks, c)
		}
	}
	var c *readCache
	if c.put(1, []byte{1}) {
		t.Fatal("nil cache took a buffer")
	}
	if _, ok := c.get(1); ok {
		t.Fatal("nil cache hit")
	}
	c.drop(1)
	c.reset()
}

// Readers fill and read while a writer drops (run under -race).
func TestReadCacheConcurrent(t *testing.T) {
	c := newReadCache(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4000; i++ {
				addr := int64((i*7 + g) % 24)
				if b, ok := c.get(addr); ok && int64(b[0]) != addr {
					t.Errorf("addr %d holds block of %d", addr, b[0])
					return
				}
				if g == 0 {
					c.drop(addr)
				} else {
					c.put(addr, []byte{byte(addr)})
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.order(t); len(got) > 8 {
		t.Fatalf("%d entries in an 8-block cache", len(got))
	}
}

// BenchmarkRcacheEviction exercises put with the cache at capacity: every
// insert evicts the oldest block and reuses its slot (allocations per op
// are the measure).
func BenchmarkRcacheEviction(b *testing.B) {
	const blocks = 1024
	c := newReadCache(blocks)
	buf := make([]byte, layout.BlockSize)
	for i := 0; i < blocks; i++ {
		c.put(int64(i), buf)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.put(int64(blocks+i), buf)
	}
}
