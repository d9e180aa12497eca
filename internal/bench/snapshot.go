package bench

import (
	"fmt"
	"runtime"
)

// Snapshot is the schema of the BENCH_<date>.json artifact: every
// structured benchmark grid plus enough run metadata to compare
// snapshots across commits. cmd/lfsbench -snapshot writes it and
// -check replays a fresh run against a committed one.
type Snapshot struct {
	Date        string              `json:"date"`
	GoVersion   string              `json:"go_version"`
	Quick       bool                `json:"quick"`
	Seed        int64               `json:"seed"`
	GroupCommit []GroupCommitResult `json:"groupcommit"`
	NVSync      []NVSyncResult      `json:"nvsync"`
	ReadPath    []ReadPathResult    `json:"readpath"`
}

// RunSnapshot runs every snapshot grid. Date is stamped by the caller
// so the bench package itself stays deterministic.
func RunSnapshot(cfg Config, date string) (*Snapshot, error) {
	gc, err := RunGroupCommitResults(cfg)
	if err != nil {
		return nil, err
	}
	nv, err := RunNVSyncResults(cfg)
	if err != nil {
		return nil, err
	}
	rp, err := RunReadPathResults(cfg)
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		Date:        date,
		GoVersion:   runtime.Version(),
		Quick:       cfg.Quick,
		Seed:        cfg.Seed,
		GroupCommit: gc,
		NVSync:      nv,
		ReadPath:    rp,
	}, nil
}

// Regression is one metric of one grid cell that moved past its
// tolerance band in the bad direction, or a baseline cell the fresh run
// no longer produces.
type Regression struct {
	Grid    string  // "groupcommit", "nvsync", "readpath"
	Cell    string  // human-readable cell key, e.g. "steady/w=4/grouped"
	Metric  string  // metric name, e.g. "allocs_per_op"
	Base    float64 // committed baseline value
	Got     float64 // fresh-run value
	Allowed float64 // maximum tolerated value (Base scaled by the band)
	Missing bool    // the fresh run has no cell matching the baseline's
}

// String renders the regression for CI logs.
func (r Regression) String() string {
	if r.Missing {
		return fmt.Sprintf("%s %s: cell present in baseline but missing from this run", r.Grid, r.Cell)
	}
	return fmt.Sprintf("%s %s: %s = %.3f, baseline %.3f (allowed <= %.3f)",
		r.Grid, r.Cell, r.Metric, r.Got, r.Base, r.Allowed)
}

// tolerance describes one gated metric: the fresh value may exceed the
// baseline by rel (fractional headroom) plus abs (absolute slack, which
// keeps near-zero baselines like the cached-read allocs/op meaningful
// without making them impossible). Only increases regress; every gated
// metric is one where smaller is better.
type tolerance struct {
	metric string
	rel    float64
	abs    float64
}

func (t tolerance) check(grid, cell string, base, got float64, out []Regression) []Regression {
	allowed := base*(1+t.rel) + t.abs
	if got > allowed {
		out = append(out, Regression{
			Grid: grid, Cell: cell, Metric: t.metric,
			Base: base, Got: got, Allowed: allowed,
		})
	}
	return out
}

// Gated tolerance bands. Only host-independent metrics are gated:
// allocations per op (runtime-deterministic modulo background GC
// bookkeeping, hence the absolute slack) and simulated device traffic.
// Wall-clock throughput and sync latencies vary with the CI host and
// are recorded in the snapshot but never gated. Block counts that depend
// on scheduling are ungated too: NVSync's (with absorption on, how many
// segments the async committer drained before the stats read) and
// GroupCommit's with two or more writers (how many syncs share one flush
// — and so how many partial segments are written — is decided by who
// wins fs.mu; on a 2-CPU host w=8 reads 30-70 % above the baseline).
var (
	allocsBand   = tolerance{metric: "allocs_per_op", rel: 0.25, abs: 2}
	blocksBand   = tolerance{metric: "blocks_written", rel: 0.05, abs: 16}
	rdBlocksBand = tolerance{metric: "blocks_read", rel: 0.05, abs: 16}
	rdReqsBand   = tolerance{metric: "read_reqs", rel: 0.05, abs: 16}
)

// CompareSnapshots checks a fresh run against a committed baseline and
// returns every regression. Cells are matched by identity (scenario,
// writer count, mode); baseline cells missing from the fresh run are
// regressions, extra fresh cells (new grids, new sweep points) are not.
// An empty result means the gate passes.
func CompareSnapshots(base, got *Snapshot) []Regression {
	var out []Regression

	gc := make(map[string]GroupCommitResult, len(got.GroupCommit))
	for _, r := range got.GroupCommit {
		gc[fmt.Sprintf("%s/w=%d/grouped=%v", r.Scenario, r.Writers, r.Grouped)] = r
	}
	for _, b := range base.GroupCommit {
		cell := fmt.Sprintf("%s/w=%d/grouped=%v", b.Scenario, b.Writers, b.Grouped)
		g, ok := gc[cell]
		if !ok {
			out = append(out, Regression{Grid: "groupcommit", Cell: cell, Missing: true})
			continue
		}
		out = allocsBand.check("groupcommit", cell, b.AllocsPerOp, g.AllocsPerOp, out)
		if b.Writers == 1 {
			out = blocksBand.check("groupcommit", cell, float64(b.BlocksOut), float64(g.BlocksOut), out)
		}
	}

	nv := make(map[string]NVSyncResult, len(got.NVSync))
	for _, r := range got.NVSync {
		nv[fmt.Sprintf("w=%d/absorbed=%v", r.Writers, r.Absorbed)] = r
	}
	for _, b := range base.NVSync {
		cell := fmt.Sprintf("w=%d/absorbed=%v", b.Writers, b.Absorbed)
		g, ok := nv[cell]
		if !ok {
			out = append(out, Regression{Grid: "nvsync", Cell: cell, Missing: true})
			continue
		}
		out = allocsBand.check("nvsync", cell, b.AllocsPerOp, g.AllocsPerOp, out)
	}

	rp := make(map[string]ReadPathResult, len(got.ReadPath))
	for _, r := range got.ReadPath {
		rp[fmt.Sprintf("%s/readers=%d", r.Mode, r.Readers)] = r
	}
	for _, b := range base.ReadPath {
		cell := fmt.Sprintf("%s/readers=%d", b.Mode, b.Readers)
		g, ok := rp[cell]
		if !ok {
			out = append(out, Regression{Grid: "readpath", Cell: cell, Missing: true})
			continue
		}
		out = allocsBand.check("readpath", cell, b.AllocsPerOp, g.AllocsPerOp, out)
		out = rdBlocksBand.check("readpath", cell, float64(b.BlocksRead), float64(g.BlocksRead), out)
		out = rdReqsBand.check("readpath", cell, float64(b.ReadReqs), float64(g.ReadReqs), out)
	}
	return out
}
