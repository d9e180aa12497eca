package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/workload"
)

// RunTable2 reproduces Table 2: segment cleaning statistics and write
// costs for the five production file systems, using the synthetic
// profiles in internal/workload. Disks are scaled down from the paper's
// sizes (the cleaning economics are segment-relative); traffic volume is
// set to several times each disk's capacity so cleaning reaches steady
// state, standing in for the paper's four months of measurement.
func RunTable2(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "table2",
		Title: "segment cleaning statistics and write costs, production-like workloads",
		Columns: []string{"file system", "disk", "avg file", "in use",
			"segments cleaned", "empty", "u avg", "write cost",
			"paper empty", "paper u", "paper cost"},
	}
	// Scaling rule: divide the disk size and the segment size by the
	// same factor, so the number of segments — and with it the paper's
	// hundreds of segments of free-space slack, which is what lets dead
	// space accumulate until segments are nearly empty when cleaned —
	// stays at the paper's scale.
	scale, segBlocks := 8, 32 // 128 KB segments
	trafficFactor := 2.0
	if cfg.Quick {
		scale, segBlocks = 32, 16 // 64 KB segments
		trafficFactor = 1.0
	}
	for _, p := range workload.Profiles() {
		diskMB := p.DiskMB / scale
		if diskMB < 16 {
			diskMB = 16
		}
		sub := cfg
		if sub.Tracer == nil {
			// Metrics-only tracer: the obs layer double-books the log and
			// cleaner traffic so the two accountings can be cross-checked.
			sub.Tracer = obs.New(nil)
		}
		fs, _, err := sub.newLFSSized(int64(diskMB)<<20/4096, core.Options{SegmentBlocks: segBlocks})
		if err != nil {
			return nil, err
		}
		defer fs.Unmount()
		capacity := usableCapacity(fs)
		run, err := p.Populate(fs, capacity, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("%s populate: %w", p.Name, err)
		}
		fs.ResetStats()
		before := fs.Metrics()
		if err := run.ApplyTraffic(int64(trafficFactor * float64(capacity))); err != nil {
			return nil, fmt.Errorf("%s traffic: %w", p.Name, err)
		}
		st := fs.Stats()
		if err := checkMetrics(p.Name, st, before, fs.Metrics()); err != nil {
			return nil, err
		}
		t.AddRow(p.Name,
			fmt.Sprintf("%d MB", diskMB),
			fmt.Sprintf("%.1f KB", p.AvgFileKB),
			fmt.Sprintf("%.0f%%", p.Utilization*100),
			fmt.Sprintf("%d", st.SegmentsCleaned),
			fmt.Sprintf("%.0f%%", st.EmptyCleanedFraction()*100),
			fmt.Sprintf("%.3f", st.AvgCleanedUtil()),
			fmt.Sprintf("%.2f", st.WriteCost()),
			fmt.Sprintf("%.0f%%", p.PaperEmptyPct),
			fmt.Sprintf("%.3f", p.PaperAvgU),
			fmt.Sprintf("%.1f", p.PaperWriteCost))
	}
	t.AddNote("disks scaled down %dx from the paper's; traffic is %.1fx capacity instead of four months of production use", scale, trafficFactor)
	t.AddNote("paper: write costs 1.2-1.6, more than half of cleaned segments empty — far better than the simulations, because files are written/deleted whole and cold files are very cold")
	return t, nil
}

// checkMetrics asserts the obs layer's counters agree with the core
// Stats over the traffic phase. The tracer may be shared across the
// whole run (lfsbench -trace), so deltas between the two snapshots are
// compared, not absolute values.
func checkMetrics(name string, st core.Stats, before, after obs.Snapshot) error {
	delta := func(ctr string) int64 { return after.Counter(ctr) - before.Counter(ctr) }
	if got := delta(obs.CtrCleanerReadBytes); got != st.CleanerReadBytes {
		return fmt.Errorf("%s: obs cleaner read bytes %d != stats %d", name, got, st.CleanerReadBytes)
	}
	if got := delta(obs.CtrCleanerWriteBytes); got != st.CleanerWriteBytes {
		return fmt.Errorf("%s: obs cleaner write bytes %d != stats %d", name, got, st.CleanerWriteBytes)
	}
	if got := delta(obs.CtrCleanerSegments); got != st.SegmentsCleaned {
		return fmt.Errorf("%s: obs segments cleaned %d != stats %d", name, got, st.SegmentsCleaned)
	}
	for k, want := range st.LogBytesByKind {
		kind := layout.BlockKind(k)
		if kind < layout.KindData || kind > layout.KindDirLog {
			continue
		}
		if got := delta(obs.CtrLogBytesPrefix + kind.String()); got != want {
			return fmt.Errorf("%s: obs log bytes for %s %d != stats %d", name, kind, got, want)
		}
	}
	if got := delta(obs.CtrLogSummaryBytes); got != st.SummaryBytes {
		return fmt.Errorf("%s: obs summary bytes %d != stats %d", name, got, st.SummaryBytes)
	}
	return nil
}
