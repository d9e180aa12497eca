package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// churn applies a hot-and-cold whole-file overwrite workload to a fresh
// LFS built with the given options and returns the resulting stats.
func churn(cfg Config, opts core.Options, trafficFactor float64) (core.Stats, *core.FS, error) {
	if opts.SegmentBlocks == 0 {
		// Preserve the paper's segment count on scaled-down disks (see
		// RunTable2).
		opts.SegmentBlocks = 32
		if cfg.Quick {
			opts.SegmentBlocks = 16
		}
	}
	fs, _, err := cfg.newLFSOpts(opts)
	if err != nil {
		return core.Stats{}, nil, err
	}
	defer fs.Unmount()
	p := workload.Profile{
		Name: "churn", AvgFileKB: 16, Utilization: 0.7,
		ColdFraction: 0.5, WholeFileWrites: true,
	}
	capacity := usableCapacity(fs)
	run, err := p.Populate(fs, capacity, cfg.Seed)
	if err != nil {
		return core.Stats{}, nil, err
	}
	fs.ResetStats()
	if err := run.ApplyTraffic(int64(trafficFactor * float64(capacity))); err != nil {
		return core.Stats{}, nil, err
	}
	return fs.Stats(), fs, nil
}

func (c Config) trafficFactor() float64 {
	if c.Quick {
		return 0.75
	}
	return 1.5
}

// RunAblationPolicy compares the cost-benefit and greedy cleaning
// policies on the real file system (not just the simulator) under a
// hot-and-cold overwrite workload.
func RunAblationPolicy(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "ablation-policy",
		Title:   "cleaning policy ablation on the real file system",
		Columns: []string{"policy", "write cost", "segments cleaned", "empty", "avg cleaned u"},
	}
	for _, pol := range []core.CleaningPolicy{core.PolicyCostBenefit, core.PolicyGreedy} {
		st, _, err := churn(cfg, core.Options{Policy: pol}, cfg.trafficFactor())
		if err != nil {
			return nil, err
		}
		t.AddRow(pol.String(),
			fmt.Sprintf("%.2f", st.WriteCost()),
			fmt.Sprintf("%d", st.SegmentsCleaned),
			fmt.Sprintf("%.0f%%", st.EmptyCleanedFraction()*100),
			fmt.Sprintf("%.3f", st.AvgCleanedUtil()))
	}
	t.AddNote("the paper adopted cost-benefit after the Section 3.5 simulations; Section 5.2 found production behaviour even better than simulated")
	return t, nil
}

// RunAblationAgeSort measures the effect of age-sorting live blocks
// during cleaning (Section 3.4, policy question 4).
func RunAblationAgeSort(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "ablation-agesort",
		Title:   "age sorting of live blocks during cleaning",
		Columns: []string{"age sort", "write cost", "avg cleaned u"},
	}
	for _, noSort := range []bool{false, true} {
		st, _, err := churn(cfg, core.Options{NoAgeSort: noSort}, cfg.trafficFactor())
		if err != nil {
			return nil, err
		}
		label := "on (paper)"
		if noSort {
			label = "off"
		}
		t.AddRow(label, fmt.Sprintf("%.2f", st.WriteCost()), fmt.Sprintf("%.3f", st.AvgCleanedUtil()))
	}
	return t, nil
}

// RunAblationSegmentSize sweeps the segment size (Section 3.2: segments
// must be large enough that whole-segment transfers dwarf the seek cost).
func RunAblationSegmentSize(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "ablation-segsize",
		Title:   "segment size sweep",
		Columns: []string{"segment", "write cost", "disk busy per MB of new data (ms)"},
	}
	sizes := []int{16, 32, 64, 128, 256}
	if cfg.Quick {
		sizes = []int{16, 64, 128}
	}
	for _, blocks := range sizes {
		fs, d, err := cfg.newLFSSized(cfg.diskBlocks(), core.Options{SegmentBlocks: blocks})
		if err != nil {
			return nil, err
		}
		defer fs.Unmount()
		p := workload.Profile{Name: "seg", AvgFileKB: 16, Utilization: 0.6, ColdFraction: 0.3, WholeFileWrites: true}
		capacity := usableCapacity(fs)
		run, err := p.Populate(fs, capacity, cfg.Seed)
		if err != nil {
			return nil, err
		}
		fs.ResetStats()
		d.ResetStats()
		if err := run.ApplyTraffic(int64(cfg.trafficFactor() * float64(capacity))); err != nil {
			return nil, err
		}
		st := fs.Stats()
		busyPerMB := d.Stats().BusyTime.Seconds() * 1000 / (float64(st.NewDataBytes) / (1 << 20))
		t.AddRow(fmt.Sprintf("%d KB", blocks*4),
			fmt.Sprintf("%.2f", st.WriteCost()),
			fmt.Sprintf("%.1f", busyPerMB))
	}
	t.AddNote("Sprite LFS used 512 KB or 1 MB segments; small segments pay positioning cost per partial write")
	return t, nil
}

// RunAblationCheckpointInterval sweeps the checkpoint interval and
// reports the metadata share of the log (Section 4.1: a short interval
// increases normal-operation cost; Table 4 blames Sprite's 30-second
// interval for its metadata overhead).
func RunAblationCheckpointInterval(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "ablation-checkpoint",
		Title:   "checkpoint interval sweep (interval in KB of log between checkpoints)",
		Columns: []string{"interval", "checkpoints", "metadata share of log", "write cost"},
	}
	intervals := []int64{256 << 10, 1 << 20, 4 << 20, 0}
	if cfg.Quick {
		intervals = []int64{256 << 10, 2 << 20, 0}
	}
	for _, iv := range intervals {
		st, _, err := churn(cfg, core.Options{CheckpointEveryBytes: iv}, cfg.trafficFactor())
		if err != nil {
			return nil, err
		}
		meta := st.LogBytesByKind[3] + st.LogBytesByKind[4] + st.LogBytesByKind[5] + st.LogBytesByKind[6] + st.SummaryBytes
		label := "none (unmount only)"
		if iv > 0 {
			label = fmt.Sprintf("%d KB", iv>>10)
		}
		t.AddRow(label,
			fmt.Sprintf("%d", st.Checkpoints),
			fmt.Sprintf("%.1f%%", pct(meta, st.LogBytesTotal())),
			fmt.Sprintf("%.2f", st.WriteCost()))
	}
	return t, nil
}

// RunAblationWriteBuffer sweeps the write buffer (partial segment) size:
// small buffers model NFS-like eager write-back and lose the batching
// advantage.
func RunAblationWriteBuffer(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	n := 2000
	if cfg.Quick {
		n = 400
	}
	t := &Table{
		ID:      "ablation-writebuffer",
		Title:   fmt.Sprintf("write buffer sweep: create %d x 1 KB files", n),
		Columns: []string{"buffer (blocks)", "partial writes", "disk busy (s)", "files/sec (simulated)"},
	}
	buffers := []int{1, 4, 16, 64, 128}
	if cfg.Quick {
		buffers = []int{1, 16, 64}
	}
	for _, wb := range buffers {
		fs, d, err := cfg.newLFSOpts(core.Options{WriteBufferBlocks: wb})
		if err != nil {
			return nil, err
		}
		defer fs.Unmount()
		w := workload.SmallFiles{NumFiles: n, FileSize: 1024}
		pre := d.Stats()
		if err := w.CreatePhase(fs); err != nil {
			return nil, err
		}
		diskTime := d.Stats().Sub(pre).BusyTime
		cpu := cfg.CPU.Cost(int64(n), int64(n)*1024)
		el := Elapsed(cpu, diskTime, false)
		t.AddRow(fmt.Sprintf("%d", wb),
			fmt.Sprintf("%d", fs.Stats().PartialWrites),
			seconds(diskTime),
			fmt.Sprintf("%.0f", rate(n, el)))
	}
	t.AddNote("one-block buffers make every write a tiny partial-segment write, paying the per-request positioning cost LFS exists to avoid")
	return t, nil
}

// RunAblationThresholds sweeps the cleaner's low/high water marks
// (Section 3.4: "the overall performance of Sprite LFS does not seem to
// be very sensitive to the exact choice of the threshold values").
func RunAblationThresholds(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "ablation-thresholds",
		Title:   "cleaner water mark sweep",
		Columns: []string{"low/high", "write cost", "cleaning passes"},
	}
	type wm struct{ lo, hi int }
	// The sweep starts at the defaults (zeroes): a low mark under the
	// floor withDefaults enforces is raised to it.
	marks := []wm{{0, 0}, {16, 32}, {24, 48}, {32, 64}, {48, 96}}
	if cfg.Quick {
		marks = []wm{{0, 0}, {16, 32}, {32, 64}}
	}
	for _, m := range marks {
		st, fs, err := churn(cfg, core.Options{CleanLowWater: m.lo, CleanHighWater: m.hi}, cfg.trafficFactor())
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d/%d", fs.Options().CleanLowWater, fs.Options().CleanHighWater),
			fmt.Sprintf("%.2f", st.WriteCost()),
			fmt.Sprintf("%d", st.CleaningPasses))
	}
	t.AddNote("paper: overall performance is not very sensitive to the threshold values")
	return t, nil
}

// RunAblationCleanRead compares whole-segment reads with reading only the
// summary and live blocks during cleaning (Section 3.4: "in practice it
// may be faster to read just the live blocks, particularly if the
// utilization is very low (we haven't tried this in Sprite LFS)").
func RunAblationCleanRead(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "ablation-cleanread",
		Title:   "cleaner read strategy: whole segments vs live blocks only",
		Columns: []string{"strategy", "cleaner MB read", "read reqs/seg", "write cost", "disk busy (s)"},
	}
	for _, liveOnly := range []bool{false, true} {
		opts := core.Options{CleanReadLiveOnly: liveOnly}
		fs, d, err := cfg.newLFSOpts(withChurnGeometry(cfg, opts))
		if err != nil {
			return nil, err
		}
		defer fs.Unmount()
		p := workload.Profile{Name: "sparse", AvgFileKB: 16, Utilization: 0.45,
			ColdFraction: 0.8, WholeFileWrites: true}
		capacity := usableCapacity(fs)
		run, err := p.Populate(fs, capacity, cfg.Seed)
		if err != nil {
			return nil, err
		}
		fs.ResetStats()
		d.ResetStats()
		preReads := d.Stats().ReadOps
		if err := run.ApplyTraffic(int64(cfg.trafficFactor() * float64(capacity))); err != nil {
			return nil, err
		}
		st := fs.Stats()
		label := "whole segment (paper formula 1)"
		if liveOnly {
			label = "live blocks only"
		}
		reqsPerSeg := float64(d.Stats().ReadOps-preReads) / float64(max64(1, st.SegmentsCleaned))
		t.AddRow(label,
			fmt.Sprintf("%d", st.CleanerReadBytes>>20),
			fmt.Sprintf("%.1f", reqsPerSeg),
			fmt.Sprintf("%.2f", st.WriteCost()),
			seconds(d.Stats().BusyTime))
	}
	t.AddNote("at low cleaned utilization, reading only live blocks moves far fewer bytes but issues more, smaller requests")
	return t, nil
}

// withChurnGeometry applies the scaled segment geometry used by the churn
// experiments.
func withChurnGeometry(cfg Config, opts core.Options) core.Options {
	if opts.SegmentBlocks == 0 {
		opts.SegmentBlocks = 32
		if cfg.Quick {
			opts.SegmentBlocks = 16
		}
	}
	return opts
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
