package bench

import (
	"fmt"

	"repro/internal/core"
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
		// Sprite's cleaner read each victim whole (formula 1).
		fs, _, err := cfg.newLFSSized(int64(diskMB)<<20/4096, core.Options{SegmentBlocks: segBlocks, CleanRead: core.CleanReadWhole})
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
		if err := run.ApplyTraffic(int64(trafficFactor * float64(capacity))); err != nil {
			return nil, fmt.Errorf("%s traffic: %w", p.Name, err)
		}
		st := fs.Stats()
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
