package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/workload"
)

// RunTable4 reproduces Table 4: disk space and log bandwidth usage by
// block type on a /user6-like workload with a short checkpoint interval.
// More than 99% of the live data is file data and indirect blocks, but a
// noticeable share of the log bandwidth goes to inodes, inode map blocks
// and segment usage blocks, because the short checkpoint interval forces
// metadata to disk frequently.
func RunTable4(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	// A checkpoint every megabyte of log stands in for Sprite's
	// 30-second interval.
	opts := core.Options{CheckpointEveryBytes: 1 << 20, SegmentBlocks: 32}
	if cfg.Quick {
		opts.CheckpointEveryBytes = 512 << 10
		opts.SegmentBlocks = 16
	}
	fs, _, err := cfg.newLFSOpts(opts)
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
	fs.ResetStats()
	traffic := capacity / 2
	if cfg.Quick {
		traffic = capacity / 4
	}
	if err := run.ApplyTraffic(traffic); err != nil {
		return nil, err
	}
	st := fs.Stats()
	live, err := fs.LiveBytesByKind()
	if err != nil {
		return nil, err
	}

	var liveTotal int64
	for _, v := range live {
		liveTotal += v
	}
	logTotal := st.LogBytesTotal()

	t := &Table{
		ID:      "table4",
		Title:   "disk space and log bandwidth usage by block type (/user6-like)",
		Columns: []string{"block type", "live data", "log bandwidth", "paper live", "paper log"},
	}
	paper := map[layout.BlockKind][2]string{
		layout.KindData:     {"98.0%", "85.2%"},
		layout.KindIndirect: {"1.0%", "1.6%"},
		layout.KindInode:    {"0.2%", "2.7%"},
		layout.KindImap:     {"0.2%", "7.8%"},
		layout.KindSegUsage: {"0.0%", "2.1%"},
		layout.KindDirLog:   {"0.0%", "0.1%"},
	}
	kinds := []layout.BlockKind{layout.KindData, layout.KindIndirect, layout.KindInode,
		layout.KindImap, layout.KindSegUsage, layout.KindDirLog}
	for _, k := range kinds {
		t.AddRow(k.String(),
			fmt.Sprintf("%.1f%%", pct(live[k], liveTotal)),
			fmt.Sprintf("%.1f%%", pct(st.LogBytesByKind[k], logTotal)),
			paper[k][0], paper[k][1])
	}
	t.AddRow("summary blocks", "-",
		fmt.Sprintf("%.1f%%", pct(st.SummaryBytes, logTotal)),
		"0.6% (live)", "0.5%")
	t.AddNote("checkpoint interval: every %d KB of log (standing in for Sprite's 30 s)", opts.CheckpointEveryBytes>>10)
	t.AddNote("paper: 'more than 99%% of the live data consists of file data and indirect blocks; about 13%% of the log is metadata that tends to be overwritten quickly'")
	return t, nil
}

func pct(part, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total) * 100
}
