package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
)

// This experiment measures the transaction-grouped log admission path:
// N concurrent writers stage operations under per-op block budgets and
// share log flushes through the group committer. Section 5.1 of the paper notes LFS "can use the disk a factor of four
// to six more efficiently" for small writes because many are batched
// into one log append; group commit extends the same batching to
// explicit Sync callers, as in Hagmann's Cedar reimplementation cited
// by the paper.
//
// Throughput and sync latency are host wall-clock (lock scheduling is what
// changes with the writer count; the simulated time model does not see it).
// Blocks written and device busy time are simulated, and repeat run to run
// only with one writer: with more, scheduling decides what shares a flush.

// groupCommitResult is one (scenario, writers) cell.
type groupCommitResult struct {
	Scenario     string  // "steady" or "sync-heavy"
	Writers      int     // concurrent writer goroutines
	OpsPerSec    float64 // host wall-clock throughput
	SyncP50Nanos int64   // host wall-clock Sync latency
	SyncP99Nanos int64
	AllocsPerOp  float64 // heap allocations per op
	BlocksOut    int64   // simulated device blocks
	GroupCommits int64   // committer batches flushed
	GroupSyncs   int64   // Sync callers those served
	NVAbsorbed   int64   // Syncs that returned at the NVRAM
	NVBackpress  int64   // inline flushes forced by a full NVRAM
}

// groupCommitScenario describes one workload shape. Every scenario's round
// count is a multiple of its syncMod, so each writer's last round syncs and
// blocks out counts everything the run wrote.
type groupCommitScenario struct {
	name    string
	writers []int
	syncMod int // Sync after every syncMod-th round; 1 = sync-heavy
	rounds  int
	payload int // bytes per WriteFile
}

func groupCommitScenarios(cfg Config) []groupCommitScenario {
	rounds := 400
	if cfg.Quick {
		rounds = 120
	}
	return []groupCommitScenario{ // nvsync.go runs syncHeavy
		{name: "steady", writers: []int{1, 2, 4, 8}, syncMod: 8, rounds: rounds, payload: 4 * layout.BlockSize},
		{name: "sync-heavy", writers: []int{1, 8}, syncMod: 1, rounds: rounds, payload: layout.BlockSize},
	}
}

// runGroupCommitCell runs one scenario at one writer count, over nv when
// it is not nil (nvsync.go).
func runGroupCommitCell(cfg Config, sc groupCommitScenario, writers int, nv *core.NVRAM) (groupCommitResult, error) {
	res := groupCommitResult{Scenario: sc.name, Writers: writers}
	opts := core.Options{
		SegmentBlocks:   64,
		MaxInodes:       4096,
		ReadCacheBlocks: 64,
		NVRAM:           nv,
	}
	fs, d, err := cfg.newLFSSized(16384, opts)
	if err != nil {
		return res, err
	}
	defer fs.Unmount()

	payload := make([]byte, sc.payload)
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
			var lats []time.Duration
			// Each writer rotates through a private set of files so the
			// namespaces never conflict and every round dirties fresh
			// inode and data blocks.
			for r := 0; r < sc.rounds; r++ {
				path := fmt.Sprintf("/w%d-%d", w, r%4)
				if err := fs.WriteFile(path, payload); err != nil {
					fail(fmt.Errorf("writer %d round %d: %w", w, r, err))
					return
				}
				if (r+1)%sc.syncMod == 0 {
					t0 := time.Now()
					if err := fs.Sync(); err != nil {
						fail(fmt.Errorf("writer %d sync %d: %w", w, r, err))
						return
					}
					lats = append(lats, time.Since(t0))
				}
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
	ops := writers * sc.rounds
	res.OpsPerSec = rate(ops, elapsed)
	p50, p99 := latencyPercentiles(syncLats)
	res.SyncP50Nanos = p50.Nanoseconds()
	res.SyncP99Nanos = p99.Nanoseconds()
	res.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)
	res.BlocksOut = ds.BlocksWritten
	res.GroupCommits = st.GroupCommits
	res.GroupSyncs = st.GroupCommitSyncs
	res.NVAbsorbed = st.NVAbsorbedSyncs
	res.NVBackpress = st.NVBackpressureFlushes
	return res, nil
}

func latencyPercentiles(lats []time.Duration) (p50, p99 time.Duration) {
	if len(lats) == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)*50/100], s[len(s)*99/100]
}

// RunGroupCommit runs the grid and renders it as a table.
func RunGroupCommit(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	var results []groupCommitResult
	for _, sc := range groupCommitScenarios(cfg) {
		for _, writers := range sc.writers {
			r, err := runGroupCommitCell(cfg, sc, writers, nil)
			if err != nil {
				return nil, fmt.Errorf("groupcommit %s w=%d: %w", sc.name, writers, err)
			}
			results = append(results, r)
		}
	}
	t := &Table{
		ID:    "groupcommit",
		Title: "concurrent writer throughput and Sync latency under group commit",
		Columns: []string{"scenario", "writers", "ops/s", "sync p50", "sync p99",
			"allocs/op", "blocks out", "batches", "syncs/batch"},
	}
	for _, r := range results {
		perBatch := "-"
		if r.GroupCommits > 0 {
			perBatch = fmt.Sprintf("%.1f", float64(r.GroupSyncs)/float64(r.GroupCommits))
		}
		t.AddRow(r.Scenario, fmt.Sprintf("%d", r.Writers),
			fmt.Sprintf("%.0f", r.OpsPerSec),
			time.Duration(r.SyncP50Nanos).Round(time.Microsecond).String(),
			time.Duration(r.SyncP99Nanos).Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", r.AllocsPerOp),
			fmt.Sprintf("%d", r.BlocksOut),
			fmt.Sprintf("%d", r.GroupCommits),
			perBatch)
	}
	t.AddNote("ops/s and sync percentiles are host wall-clock (lock scheduling is what differs between writer counts); blocks out and device busy time are simulated, and repeat from run to run only with one writer: at 2+ writers, scheduling decides which ops share a flush")
	return t, nil
}
