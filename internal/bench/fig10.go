package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// RunFig10 reproduces Figure 10: the distribution of segment utilizations
// in a long-running /user6-like file system. The production behaviour is
// strongly bimodal: large numbers of fully utilized segments and totally
// empty segments.
func RunFig10(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	segBlocks := 32
	if cfg.Quick {
		segBlocks = 16
	}
	fs, _, err := cfg.newLFSOpts(core.Options{SegmentBlocks: segBlocks})
	if err != nil {
		return nil, err
	}
	defer fs.Unmount()
	profile := workload.Profiles()[0] // /user6
	capacity := usableCapacity(fs)
	run, err := profile.Populate(fs, capacity, cfg.Seed)
	if err != nil {
		return nil, err
	}
	traffic := capacity
	if cfg.Quick {
		traffic = capacity / 2
	}
	if err := run.ApplyTraffic(traffic); err != nil {
		return nil, err
	}

	utils := fs.SegmentUtilizations()
	const groups = 10
	hist := make([]float64, groups)
	for _, u := range utils {
		g := int(u * groups)
		if g >= groups {
			g = groups - 1
		}
		hist[g]++
	}
	t := &Table{
		ID:      "fig10",
		Title:   "segment utilization distribution, /user6-like workload",
		Columns: []string{"utilization bin", "fraction of segments", ""},
	}
	var full, empty float64
	for g, v := range hist {
		frac := v / float64(len(utils))
		bar := ""
		for i := 0; i < int(frac*120); i++ {
			bar += "#"
		}
		t.AddRow(fmt.Sprintf("%.1f-%.1f", float64(g)/groups, float64(g+1)/groups),
			fmt.Sprintf("%.3f", frac), bar)
		if g == 0 {
			empty = frac
		}
		if g == groups-1 {
			full = frac
		}
	}
	t.AddNote("files: %d, live data: %d MB, write cost so far: %.2f",
		run.NumFiles(), run.LiveBytes()>>20, fs.Stats().WriteCost())
	t.AddNote("paper: the distribution shows large numbers of fully utilized and totally empty segments (here: %.0f%% nearly empty, %.0f%% nearly full)", empty*100, full*100)
	return t, nil
}
