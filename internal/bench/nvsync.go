package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
)

// This experiment measures NVRAM-absorbed sync (Options.NVSyncAbsorb)
// against the inline-durability baseline on the workload the mode exists
// for: many writers creating small files and calling Sync after every
// one. Section 5.1 of the paper observes that office workloads are
// dominated by exactly these small synchronous writes, and Baker et
// al.'s NVRAM work (cited as the follow-on) shows a battery-backed
// buffer absorbing them. With absorption on, Sync returns once the redo
// record is in the NVRAM and the segment writes wait for the next flush
// (a full write buffer or NVRAM); inline mode makes each Sync wait for
// the log flush. Both
// modes run with the NVRAM attached so the only variable is where the
// durability point sits.

// nvSyncResult is one (writers, mode) cell.
type nvSyncResult struct {
	Writers      int     // concurrent writer goroutines
	Absorbed     bool    // false = inline durability baseline
	OpsPerSec    float64 // host wall-clock throughput
	SyncP50Nanos int64   // host wall-clock Sync latency
	SyncP99Nanos int64
	AllocsPerOp  float64 // heap allocations per op
	BlocksOut    int64
	NVAbsorbed   int64 // Syncs that returned at the NVRAM
	NVBackpress  int64 // inline flushes forced by a full NVRAM
}

// runNVSyncCell runs the sync-after-every-small-file workload at one
// writer count in one durability mode.
func runNVSyncCell(cfg Config, writers int, absorbed bool) (nvSyncResult, error) {
	res := nvSyncResult{Writers: writers, Absorbed: absorbed}
	rounds := 400
	if cfg.Quick {
		rounds = 120
	}
	// Small enough that absorbed runs cycle through the whole lifecycle
	// (absorb, then a backpressure flush that drains the NVRAM) instead
	// of parking everything in the NVRAM.
	nv := core.NewNVRAM(64 << 10)
	opts := core.Options{
		SegmentBlocks:   64,
		MaxInodes:       4096,
		ReadCacheBlocks: 64,
		NVRAM:           nv,
		NVSyncAbsorb:    absorbed,
	}
	fs, d, err := cfg.newLFSSized(16384, opts)
	if err != nil {
		return res, err
	}
	defer fs.Unmount()

	payload := make([]byte, layout.BlockSize)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		syncLats []time.Duration
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
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lats := make([]time.Duration, 0, rounds)
			for r := 0; r < rounds; r++ {
				path := fmt.Sprintf("/w%d-%d", w, r%4)
				if err := fs.WriteFile(path, payload); err != nil {
					fail(fmt.Errorf("writer %d round %d: %w", w, r, err))
					return
				}
				t0 := time.Now()
				if err := fs.Sync(); err != nil {
					fail(fmt.Errorf("writer %d sync %d: %w", w, r, err))
					return
				}
				lats = append(lats, time.Since(t0))
			}
			mu.Lock()
			syncLats = append(syncLats, lats...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if firstErr != nil {
		return res, firstErr
	}

	st := fs.Stats()
	ds := d.Stats()
	ops := writers * rounds
	res.OpsPerSec = rate(ops, elapsed)
	p50, p99 := latencyPercentiles(syncLats)
	res.SyncP50Nanos = p50.Nanoseconds()
	res.SyncP99Nanos = p99.Nanoseconds()
	res.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)
	res.BlocksOut = ds.BlocksWritten
	res.NVAbsorbed = st.NVAbsorbedSyncs
	res.NVBackpress = st.NVBackpressureFlushes
	return res, nil
}

// RunNVSync runs the grid and renders it as a table.
func RunNVSync(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	var results []nvSyncResult
	for _, writers := range []int{1, 2, 4, 8} {
		for _, absorbed := range []bool{false, true} {
			r, err := runNVSyncCell(cfg, writers, absorbed)
			if err != nil {
				return nil, fmt.Errorf("nvsync w=%d absorbed=%v: %w", writers, absorbed, err)
			}
			results = append(results, r)
		}
	}
	t := &Table{
		ID:    "nvsync",
		Title: "sync-per-small-file latency and throughput, NVRAM-absorbed vs inline durability",
		Columns: []string{"writers", "mode", "ops/s", "sync p50", "sync p99",
			"allocs/op", "blocks out", "absorbed", "backpressure"},
	}
	for _, r := range results {
		mode := "inline"
		if r.Absorbed {
			mode = "absorbed"
		}
		t.AddRow(fmt.Sprintf("%d", r.Writers), mode,
			fmt.Sprintf("%.0f", r.OpsPerSec),
			time.Duration(r.SyncP50Nanos).Round(time.Microsecond).String(),
			time.Duration(r.SyncP99Nanos).Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", r.AllocsPerOp),
			fmt.Sprintf("%d", r.BlocksOut),
			fmt.Sprintf("%d", r.NVAbsorbed),
			fmt.Sprintf("%d", r.NVBackpress))
	}
	t.AddNote("every op is WriteFile(one block) + Sync; both modes run with the same 64 KiB NVRAM attached — only the durability point moves")
	t.AddNote("ops/s and sync percentiles are host wall-clock; absorbed Syncs return at the NVRAM commit and start no flush")
	return t, nil
}
