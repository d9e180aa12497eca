package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// churn applies a hot-and-cold whole-file overwrite workload to a fresh
// LFS built with the given options and returns the resulting stats. The
// cleaner reads victims whole, as formula (1) assumes, so that the write
// costs compare with the paper's.
func churn(cfg Config, opts core.Options, trafficFactor float64) (core.Stats, *core.FS, error) {
	opts.CleanRead = core.CleanReadWhole
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
		fs, d, err := cfg.newLFSSized(cfg.diskBlocks(), core.Options{SegmentBlocks: blocks, CleanRead: core.CleanReadWhole})
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

// RunAblationCleanRead compares the cleaner's three ways of reading a
// victim (core.CleanReadMode) on cleaner-gap's hot-and-cold trace, whose
// victims hold live data. Formula (1) reads the whole segment; Section 3.4
// conjectures "it may be faster to read just the live blocks ... (we
// haven't tried this in Sprite LFS)"; the planned read takes the live
// blocks and reads through the gaps the disk transfers faster than it
// skips. The three copy the same blocks in the same order, so they write
// the same bytes.
func RunAblationCleanRead(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	sc := cfg.gapScale()
	if cfg.Quick {
		sc = gapScale{segBlocks: 64, warm: 2000, perRound: 3000, rounds: 1}
	}
	t := &Table{
		ID:    "ablation-cleanread",
		Title: "cleaner read strategy on cleaner-gap's hot-and-cold trace: whole segments, live blocks only, planned reads",
		Columns: []string{"strategy", "cleaner MB read", "read reqs/non-empty seg", "write cost", "disk busy (s)",
			"cleaner MB written"},
	}
	labels := map[core.CleanReadMode]string{
		core.CleanReadWhole:   "whole segment (paper formula 1)",
		core.CleanReadLive:    "live blocks only (Section 3.4)",
		core.CleanReadPlanned: "planned (default)",
	}
	for _, mode := range []core.CleanReadMode{core.CleanReadWhole, core.CleanReadLive, core.CleanReadPlanned} {
		r, err := runGapCore(sc, core.Options{CleanRead: mode}, cfg.Seed)
		if err != nil {
			return nil, err
		}
		nonEmpty := max(1, r.st.SegmentsCleaned-r.st.SegmentsCleanedEmpty)
		t.AddRow(labels[mode],
			fmt.Sprintf("%.1f", float64(r.st.CleanerReadBytes)/(1<<20)),
			fmt.Sprintf("%.1f", float64(r.dev.ReadOps)/float64(nonEmpty)),
			fmt.Sprintf("%.2f", r.st.WriteCost()),
			seconds(r.dev.BusyTime),
			fmt.Sprintf("%.1f", float64(r.st.CleanerWriteBytes)/(1<<20)))
	}
	t.AddNote("planned reads read through a gap of up to disk.Geometry.ReadThroughBlocks dead blocks (3 on the Wren IV model): transferring it costs less than the seek and half revolution of a second request")
	return t, nil
}
