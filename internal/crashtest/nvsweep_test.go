package crashtest

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestNVSweepSmallWorkloads sweeps small scripted workloads through the
// NVRAM-absorbed crash harness: both recovery arms (NVRAM survives /
// NVRAM lost) for both group-commit modes, at every enumerated
// NVRAM-commit boundary. Zero oracle violations is the acceptance
// criterion of the NVSyncAbsorb durability model.
func TestNVSweepSmallWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("nv crash sweep is slow")
	}
	seeds := []int64{1, 7, 37, 127, 162}
	n := 60
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runs, err := SweepNV(core.Script{Seed: seed, N: n}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if runs == 0 {
				t.Fatal("sweep explored no crash runs")
			}
			t.Logf("seed %d: %d crash runs", seed, runs)
		})
	}
}

// TestPinnedNVCrashPoints pins individual (seed, N, k, arm, gc) crash
// runs through the NVRAM-absorbed model, in the style of
// TestPinnedCrashPoints: cheap enough for every CI run, and precise
// documentation of the states the durability model must handle — ops
// durable via NVRAM but absent from the disk log, replay over partially
// rolled-forward images, and fail-stop recovery that loses the absorbed
// tail.
func TestPinnedNVCrashPoints(t *testing.T) {
	cases := []struct {
		seed     int64
		n        int
		k        int64
		survives bool
		noGC     bool
	}{
		// Representative boundaries from the sweep seeds: early cut
		// (NVRAM holds nearly everything), mid-workload cut at an
		// absorbed-sync edge, and late cut past several backpressure
		// flushes — each through both arms and both commit modes.
		{seed: 1, n: 60, k: 3, survives: true, noGC: false},
		{seed: 1, n: 60, k: 3, survives: false, noGC: false},
		{seed: 7, n: 60, k: 25, survives: true, noGC: true},
		{seed: 7, n: 60, k: 25, survives: false, noGC: true},
		{seed: 37, n: 60, k: 20, survives: true, noGC: false},
		{seed: 37, n: 60, k: 20, survives: false, noGC: true},
		// Regression: this cut tears a backpressure flush after its first
		// partial write completed, leaving the disk namespace ahead of the
		// NVRAM records (a rename already rolled forward) — replay of the
		// earlier write then failed with "file not found". Fixed by
		// flush-atomic roll-forward (SummaryFlagTxnEnd): a torn flush
		// group is discarded whole and re-derived from NVRAM.
		{seed: 37, n: 60, k: 23, survives: true, noGC: false},
		{seed: 37, n: 60, k: 23, survives: false, noGC: false},
	}
	for _, c := range cases {
		c := c
		name := fmt.Sprintf("seed%d-n%d-k%d-survives%v-nogc%v", c.seed, c.n, c.k, c.survives, c.noGC)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := RecordNV(core.Script{Seed: c.seed, N: c.n}, Config{}, c.noGC)
			if err != nil {
				t.Fatal(err)
			}
			if c.k >= w.Total() {
				t.Fatalf("pinned k=%d outside workload total %d", c.k, w.Total())
			}
			arm := ArmNVLost
			if c.survives {
				arm = ArmNVSurvives
			}
			if err := w.RunPoint(c.k, arm); err != nil {
				t.Fatal(err)
			}
		})
	}
}
