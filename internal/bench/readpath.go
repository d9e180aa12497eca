package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
)

// This experiment pins the read-path allocation trajectory: single-block
// ReadAt calls against a warm read cache (the zero-allocation fast path)
// and against no cache at all (every read runs the pooled
// read-retry-verify path and recycles its buffer through the block
// freelist). Section 4 of the paper assumes "files are cached in main
// memory and that increasing memory sizes will make the caches more and
// more effective at satisfying read requests" — the cached mode is that
// assumption made measurable, and TestReadPathCellQuick pins its
// allocs/op at benchmark scale so the freelist work cannot silently rot.

// readPathResult is one (mode, readers) cell.
type readPathResult struct {
	Mode        string  // "cached" or "uncached"
	Readers     int     // concurrent reader goroutines
	Ops         int     // single-block ReadAt calls
	OpsPerSec   float64 // host wall-clock throughput
	SimP50Nanos int64   // simulated disk time per op
	SimP99Nanos int64
	AllocsPerOp float64 // heap allocations per op
	BlocksRead  int64   // simulated device blocks read
	ReadReqs    int64   // simulated device read requests
}

// readPathFileBlocks is the working-set size. It fits entirely in the
// cached mode's read cache, so after warmup that mode never touches the
// device.
const readPathFileBlocks = 64

// runReadPathCell runs the single-block read workload at one reader
// count in one cache mode.
func runReadPathCell(cfg Config, mode string, readers int) (readPathResult, error) {
	res := readPathResult{Mode: mode, Readers: readers}
	rounds := 2000
	if cfg.Quick {
		rounds = 400
	}
	opts := core.Options{
		SegmentBlocks: 64,
		MaxInodes:     4096,
	}
	switch mode {
	case "cached":
		opts.ReadCacheBlocks = 2 * readPathFileBlocks
	case "uncached":
		opts.ReadCacheBlocks = 0 // no cache: every read is a pooled device read
	default:
		return res, fmt.Errorf("readpath: unknown mode %q", mode)
	}
	fs, d, err := cfg.newLFSSized(16384, opts)
	if err != nil {
		return res, err
	}
	defer fs.Unmount()

	data := make([]byte, readPathFileBlocks*layout.BlockSize)
	for i := range data {
		data[i] = byte('a' + i%26)
	}
	if err := fs.WriteFile("/hot", data); err != nil {
		return res, err
	}
	if err := fs.Sync(); err != nil {
		return res, err
	}
	// Warmup: resolve the path and (in cached mode) make sure the whole file
	// is in the read cache so the measured loop sees only hits. The log
	// writer already left every block it wrote there, so in cached mode
	// these reads are hits too and the run reads no block at all.
	warm := make([]byte, layout.BlockSize)
	for b := 0; b < readPathFileBlocks; b++ {
		if _, err := fs.ReadAt("/hot", int64(b)*layout.BlockSize, warm); err != nil {
			return res, err
		}
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		simLats  []time.Duration
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, layout.BlockSize)
			lats := make([]time.Duration, 0, rounds)
			for r := 0; r < rounds; r++ {
				// Stride by a prime so consecutive reads are never
				// device-adjacent and the uncached mode cannot ride a
				// sequential-transfer discount.
				block := int64((r*17 + g) % readPathFileBlocks)
				busy0 := d.Stats().BusyTime
				if _, err := fs.ReadAt("/hot", block*layout.BlockSize, buf); err != nil {
					fail(fmt.Errorf("reader %d round %d: %w", g, r, err))
					return
				}
				lats = append(lats, d.Stats().BusyTime-busy0)
			}
			mu.Lock()
			simLats = append(simLats, lats...)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if firstErr != nil {
		return res, firstErr
	}

	ds := d.Stats()
	res.Ops = readers * rounds
	res.OpsPerSec = rate(res.Ops, elapsed)
	p50, p99 := latencyPercentiles(simLats)
	res.SimP50Nanos = p50.Nanoseconds()
	res.SimP99Nanos = p99.Nanoseconds()
	res.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(res.Ops)
	res.BlocksRead = ds.BlocksRead
	res.ReadReqs = ds.ReadOps
	return res, nil
}

// RunReadPath runs the grid and renders it as a table.
func RunReadPath(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	var results []readPathResult
	for _, mode := range []string{"cached", "uncached"} {
		for _, readers := range []int{1, 2, 4, 8} {
			r, err := runReadPathCell(cfg, mode, readers)
			if err != nil {
				return nil, fmt.Errorf("readpath %s readers=%d: %w", mode, readers, err)
			}
			results = append(results, r)
		}
	}
	t := &Table{
		ID:    "readpath",
		Title: "single-block read throughput and allocations, warm cache vs pooled uncached path",
		Columns: []string{"mode", "readers", "ops/s", "sim p50", "sim p99",
			"allocs/op", "blocks read", "read reqs"},
	}
	for _, r := range results {
		t.AddRow(r.Mode, fmt.Sprintf("%d", r.Readers),
			fmt.Sprintf("%.0f", r.OpsPerSec),
			time.Duration(r.SimP50Nanos).Round(time.Microsecond).String(),
			time.Duration(r.SimP99Nanos).Round(time.Microsecond).String(),
			fmt.Sprintf("%.3f", r.AllocsPerOp),
			fmt.Sprintf("%d", r.BlocksRead),
			fmt.Sprintf("%d", r.ReadReqs))
	}
	t.AddNote("cached mode holds the whole file in the read cache: sim latency is 0 and allocs/op must stay ~0 (the TestAllocsCachedRead invariant, measured at benchmark scale)")
	t.AddNote("uncached mode disables the read cache so every op runs the pooled read-retry-verify path; per-op sim latency under >1 reader attributes concurrent device work to whichever op observed it")
	return t, nil
}
