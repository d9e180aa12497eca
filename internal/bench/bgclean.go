package bench

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/obs"
)

// This experiment measures what Section 5.2 of the paper only
// conjectures: moving the cleaner off the writer's critical path ("it
// may be possible to perform much of the cleaning at night or during
// other idle periods") should keep clean segments available during
// bursts of activity — and, in a concurrent implementation, keep
// readers from stalling behind a whole low-to-high-water cleaning run.
//
// Unlike the other experiments, the reported latencies are host
// wall-clock, not simulated disk time: inline versus background
// cleaning changes who waits on the file system lock, which the
// simulated time model deliberately does not see. The absolute numbers
// depend on the host; the comparison between the two modes does not.

// bgCleanResult captures one mode's run.
type bgCleanResult struct {
	mode          string
	reads         int
	p50, p99, max time.Duration
	cleanPasses   int64
	segsCleaned   int64
	writerStalls  int64
	stallTime     time.Duration
	kicks         int64 // cleaning runs the background goroutine was asked for
	steps         *stepSink
}

// stepSink watches the order in which cleaning passes and operations end.
// Both are traced with fs.mu held (a pass under the write lock, a read under
// the read lock), so the trace order is the lock order: a read that ends
// between two passes ran while the cleaner did not hold the lock. It counts
// the gaps between consecutive passes in which a read ended, and those of
// them in which no mutating operation did — two passes with no mutation
// between them are steps of one inline cleaning run.
type stepSink struct {
	mu             sync.Mutex
	passes         int
	reads, writes  int // ended since the last pass
	gapsWithReads  int
	quietWithReads int
}

func (k *stepSink) Emit(e obs.Event) {
	k.mu.Lock()
	defer k.mu.Unlock()
	switch {
	case e.Kind == obs.KindFSOp && e.Op.Name == "read":
		k.reads++
	case e.Kind == obs.KindFSOp:
		k.writes++
	case e.Kind == obs.KindCleanerPass:
		if k.passes > 0 && k.reads > 0 {
			k.gapsWithReads++
			if k.writes == 0 {
				k.quietWithReads++
			}
		}
		k.passes++
		k.reads, k.writes = 0, 0
	}
}

// runBgCleanMode churns one file system hard enough to force repeated
// cleaning while reader goroutines time every ReadFile. Identical
// workload in both modes; only who runs the cleaner differs.
func runBgCleanMode(cfg Config, background bool) (*bgCleanResult, error) {
	opts := core.Options{
		SegmentBlocks:   32,
		MaxInodes:       2048,
		CleanLowWater:   8,
		CleanHighWater:  16,
		CleanBatch:      4,
		ReadCacheBlocks: 64,
		BackgroundClean: background,
	}
	steps := &stepSink{}
	opts.Tracer = obs.New(steps)
	fs, _, err := cfg.newLFSSized(2048, opts)
	if err != nil {
		return nil, err
	}
	defer fs.Unmount()

	const nfiles = 64
	const minRounds = 24
	const maxRounds = 400
	const minReads = 2000
	const nreaders = 2
	path := func(i int) string { return fmt.Sprintf("/f%02d", i) }
	payload := func(i, r int) []byte {
		b := make([]byte, layout.BlockSize)
		for j := range b {
			b[j] = byte(i + r + j)
		}
		return b
	}
	for i := 0; i < nfiles; i++ {
		if err := fs.WriteFile(path(i), payload(i, 0)); err != nil {
			return nil, fmt.Errorf("bgclean prefill: %w", err)
		}
	}

	done := make(chan struct{})
	lats := make([][]time.Duration, nreaders)
	readErrs := make([]error, nreaders)
	var readCount atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < nreaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := r
			for {
				select {
				case <-done:
					return
				default:
				}
				start := time.Now()
				_, err := fs.ReadFile(path(i % nfiles))
				if err != nil {
					readErrs[r] = err
					return
				}
				lats[r] = append(lats[r], time.Since(start))
				readCount.Add(1)
				i++
			}
		}(r)
	}

	// The churn: every round rewrites every file, killing the previous
	// copies in the log and driving the clean-segment pool below the
	// low-water mark over and over. It keeps churning past the minimum
	// until the readers have enough samples for a stable p99.
	var churnErr error
	for r := 1; r <= maxRounds && churnErr == nil; r++ {
		if r > minRounds && readCount.Load() >= minReads {
			break
		}
		for i := 0; i < nfiles; i++ {
			if err := fs.WriteFile(path(i), payload(i, r)); err != nil {
				churnErr = fmt.Errorf("bgclean churn round %d: %w", r, err)
				break
			}
		}
	}
	close(done)
	wg.Wait()
	if churnErr != nil {
		return nil, churnErr
	}
	for r, err := range readErrs {
		if err != nil {
			return nil, fmt.Errorf("bgclean reader %d: %w", r, err)
		}
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("bgclean: readers completed no reads")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(all)-1))
		return all[i]
	}
	st := fs.Stats()
	mode := "inline (foreground)"
	if background {
		mode = "background goroutine"
	}
	res := &bgCleanResult{
		mode:         mode,
		reads:        len(all),
		p50:          pct(0.50),
		p99:          pct(0.99),
		max:          all[len(all)-1],
		cleanPasses:  st.CleaningPasses,
		segsCleaned:  st.SegmentsCleaned,
		writerStalls: st.WriterStalls,
		stallTime:    time.Duration(st.WriterStallNanos),
		kicks:        st.CleanerKicks,
		steps:        steps,
	}
	if res.segsCleaned == 0 {
		return nil, fmt.Errorf("bgclean %s: workload never triggered the cleaner", mode)
	}
	return res, nil
}

// runBgCleanComparison runs the identical churn in both cleaning modes.
func runBgCleanComparison(cfg Config) (inline, bg *bgCleanResult, err error) {
	cfg = cfg.withDefaults()
	if inline, err = runBgCleanMode(cfg, false); err != nil {
		return nil, nil, err
	}
	if bg, err = runBgCleanMode(cfg, true); err != nil {
		return nil, nil, err
	}
	return inline, bg, nil
}

// RunBgClean compares reader latency during cleaning with the cleaner
// inline on the writer's path versus running as the background
// goroutine (Options.BackgroundClean).
func RunBgClean(cfg Config) (*Table, error) {
	inline, bg, err := runBgCleanComparison(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "bgclean",
		Title: "reader latency while cleaning: inline vs background cleaner (host wall-clock)",
		Columns: []string{"cleaner", "reads", "read p50", "read p99", "read max",
			"clean passes", "segments cleaned", "writer stalls", "stall time"},
	}
	for _, r := range []*bgCleanResult{inline, bg} {
		t.AddRow(r.mode,
			fmt.Sprintf("%d", r.reads),
			r.p50.String(), r.p99.String(), r.max.String(),
			fmt.Sprintf("%d", r.cleanPasses),
			fmt.Sprintf("%d", r.segsCleaned),
			fmt.Sprintf("%d", r.writerStalls),
			r.stallTime.String())
	}
	t.AddNote("latencies are host wall-clock (lock contention), not simulated disk time; compare the rows, not the absolute values")
	t.AddNote("inline mode stalls readers behind each low-to-high-water cleaning run; the background cleaner releases the lock between bounded steps")
	t.AddNote("reads ended between two cleaning passes with no mutation between them (inside one run) %d times inline; in the background, in %d of the %d gaps between the passes of %d runs",
		inline.steps.quietWithReads, bg.steps.gapsWithReads, bg.steps.passes-1, bg.kicks)
	if bg.p99 < inline.p99 {
		t.AddNote("background cleaning cut read p99 by %.1fx", float64(inline.p99)/float64(bg.p99))
	} else {
		t.AddNote("WARNING: background p99 not below inline p99 on this host (scheduler noise?)")
	}
	return t, nil
}
