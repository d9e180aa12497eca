package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// This experiment measures an NVRAM as the commit point on the workload
// it exists for: many writers creating small files and calling Sync after
// every one. Section 5.1 of the paper observes that office workloads are
// dominated by exactly these small synchronous writes, and Baker et al.'s
// NVRAM work (cited as the follow-on) shows a battery-backed buffer
// absorbing them. With an NVRAM attached, Sync returns once the redo
// record is in the NVRAM and the segment writes wait for the next flush
// (a full write buffer or NVRAM); without one, each Sync waits for the
// log flush. Each cell is groupcommit's sync-heavy cell, run with and
// without the NVRAM.

// syncHeavy indexes groupCommitScenarios' one-block WriteFile + Sync
// scenario.
const syncHeavy = 1

// RunNVSync runs the grid and renders it as a table.
func RunNVSync(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	sc := groupCommitScenarios(cfg)[syncHeavy]
	t := &Table{
		ID:    "nvsync",
		Title: "sync-per-small-file latency and throughput, durable on disk vs in NVRAM",
		Columns: []string{"writers", "durable", "ops/s", "sync p50", "sync p99",
			"allocs/op", "blocks out", "absorbed", "backpressure"},
	}
	for _, writers := range []int{1, 2, 4, 8} {
		for _, mode := range []string{"disk", "nvram"} {
			var nv *core.NVRAM
			if mode == "nvram" {
				// Small enough that the run cycles through the whole
				// lifecycle (absorb, then a backpressure flush that drains
				// the NVRAM) instead of parking everything in the NVRAM.
				nv = core.NewNVRAM(64 << 10)
			}
			r, err := runGroupCommitCell(cfg, sc, writers, nv)
			if err != nil {
				return nil, fmt.Errorf("nvsync w=%d %s: %w", writers, mode, err)
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
	}
	t.AddNote("every op is WriteFile(one block) + Sync, groupcommit's sync-heavy cell; nvram rows attach a 64 KiB NVRAM, which is the commit point")
	t.AddNote("ops/s and sync percentiles are host wall-clock; absorbed Syncs return at the NVRAM commit and start no flush")
	return t, nil
}
