package bench

import (
	"strings"
	"testing"
)

// gateBaseline builds a small but representative baseline snapshot.
func gateBaseline() *Snapshot {
	return &Snapshot{
		Date: "2026-08-08", Quick: false, Seed: 42,
		GroupCommit: []GroupCommitResult{
			{Scenario: "steady", Writers: 1, Grouped: true, AllocsPerOp: 18, BlocksOut: 3600},
			{Scenario: "steady", Writers: 4, Grouped: true, AllocsPerOp: 18, BlocksOut: 3600},
		},
		NVSync: []NVSyncResult{
			{Writers: 8, Absorbed: true, AllocsPerOp: 30, BlocksOut: 5000},
		},
		ReadPath: []ReadPathResult{
			{Mode: "cached", Readers: 1, AllocsPerOp: 0.01, BlocksRead: 200, ReadReqs: 40},
			{Mode: "uncached", Readers: 4, AllocsPerOp: 12, BlocksRead: 8200, ReadReqs: 8200},
		},
	}
}

// clone deep-copies a snapshot so tests can perturb one side.
func clone(s *Snapshot) *Snapshot {
	c := *s
	c.GroupCommit = append([]GroupCommitResult(nil), s.GroupCommit...)
	c.NVSync = append([]NVSyncResult(nil), s.NVSync...)
	c.ReadPath = append([]ReadPathResult(nil), s.ReadPath...)
	return &c
}

func TestCompareSnapshotsIdenticalPasses(t *testing.T) {
	base := gateBaseline()
	if regs := CompareSnapshots(base, clone(base)); len(regs) != 0 {
		t.Fatalf("identical snapshots regressed: %v", regs)
	}
}

func TestCompareSnapshotsWithinBandPasses(t *testing.T) {
	base := gateBaseline()
	got := clone(base)
	// Inside every band: allocs may grow 25% + 2, blocks 5% + 16.
	got.ReadPath[0].AllocsPerOp = 1.9     // near-zero baseline, abs slack covers it
	got.ReadPath[1].BlocksRead = 8610     // 8200*1.05=8610
	got.GroupCommit[0].AllocsPerOp = 24.0 // 18*1.25+2 = 24.5
	got.NVSync[0].AllocsPerOp = 39.0      // 30*1.25+2 = 39.5
	if regs := CompareSnapshots(base, got); len(regs) != 0 {
		t.Fatalf("in-band drift regressed: %v", regs)
	}
}

func TestCompareSnapshotsCatchesAllocRegression(t *testing.T) {
	base := gateBaseline()
	got := clone(base)
	got.ReadPath[0].AllocsPerOp = 5 // cached read path started allocating
	regs := CompareSnapshots(base, got)
	if len(regs) != 1 {
		t.Fatalf("want 1 regression, got %v", regs)
	}
	r := regs[0]
	if r.Grid != "readpath" || r.Metric != "allocs_per_op" || r.Cell != "cached/readers=1" {
		t.Fatalf("wrong regression identified: %+v", r)
	}
	if !strings.Contains(r.String(), "allocs_per_op") {
		t.Fatalf("rendering lacks metric name: %s", r)
	}
}

func TestCompareSnapshotsCatchesTrafficRegression(t *testing.T) {
	base := gateBaseline()
	got := clone(base)
	got.GroupCommit[0].BlocksOut = 4200 // > 3600*1.05+16
	got.ReadPath[1].ReadReqs = 9500     // > 8200*1.05+16
	regs := CompareSnapshots(base, got)
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions, got %v", regs)
	}
}

// Multi-writer block counts depend on which writer wins fs.mu, not on
// the code: they are recorded but not gated, while the same cell's
// allocations still are.
func TestCompareSnapshotsMultiWriterBlocksUngated(t *testing.T) {
	base := gateBaseline()
	got := clone(base)
	got.GroupCommit[1].BlocksOut = 2 * base.GroupCommit[1].BlocksOut
	if regs := CompareSnapshots(base, got); len(regs) != 0 {
		t.Fatalf("scheduling-dependent block count gated: %v", regs)
	}
	got.GroupCommit[1].AllocsPerOp = 2 * base.GroupCommit[1].AllocsPerOp
	regs := CompareSnapshots(base, got)
	if len(regs) != 1 || regs[0].Metric != "allocs_per_op" || regs[0].Cell != "steady/w=4/grouped=true" {
		t.Fatalf("want the w=4 allocs regression alone, got %v", regs)
	}
}

func TestCompareSnapshotsImprovementsPass(t *testing.T) {
	base := gateBaseline()
	got := clone(base)
	got.ReadPath[1].AllocsPerOp = 0 // faster is never a regression
	got.GroupCommit[0].BlocksOut = 1000
	if regs := CompareSnapshots(base, got); len(regs) != 0 {
		t.Fatalf("improvement flagged as regression: %v", regs)
	}
}

func TestCompareSnapshotsMissingCell(t *testing.T) {
	base := gateBaseline()
	got := clone(base)
	got.ReadPath = got.ReadPath[:1] // fresh run dropped the uncached cell
	regs := CompareSnapshots(base, got)
	if len(regs) != 1 || !regs[0].Missing {
		t.Fatalf("want 1 missing-cell regression, got %v", regs)
	}
	if !strings.Contains(regs[0].String(), "missing") {
		t.Fatalf("rendering does not say missing: %s", regs[0])
	}
}

func TestCompareSnapshotsExtraCellsIgnored(t *testing.T) {
	base := gateBaseline()
	got := clone(base)
	got.ReadPath = append(got.ReadPath, ReadPathResult{Mode: "uncached", Readers: 16, AllocsPerOp: 99})
	if regs := CompareSnapshots(base, got); len(regs) != 0 {
		t.Fatalf("extra fresh cell flagged: %v", regs)
	}
}

// TestReadPathCellQuick runs one cell of the grid end to end at quick
// scale: the cached mode must serve the measured loop entirely from
// memory, which is visible as zero simulated latency at p99.
func TestReadPathCellQuick(t *testing.T) {
	res, err := runReadPathCell(Config{Quick: true, Seed: 7}.withDefaults(), "cached", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("cell ran no ops")
	}
	if res.SimP99Nanos != 0 {
		t.Fatalf("cached mode touched the disk during the measured loop: p99 = %dns", res.SimP99Nanos)
	}
	if res.AllocsPerOp > 2 {
		t.Fatalf("cached read path allocates %.2f/op at benchmark scale", res.AllocsPerOp)
	}
}
