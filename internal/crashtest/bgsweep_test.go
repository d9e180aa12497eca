package crashtest

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestBackgroundCleanSweep replays recorded workloads with the
// background cleaner enabled and asserts that moving cleaning off the
// writer's critical path introduces no new failing (seed, N, k) triple:
// every crash point that recovers correctly under inline cleaning must
// also recover correctly when a cleaner goroutine is checkpointing and
// moving live blocks concurrently with the workload.
func TestBackgroundCleanSweep(t *testing.T) {
	seeds, n, cfg := 8, 60, Config{}
	if testing.Short() {
		seeds, n, cfg.MaxPoints = 3, 40, 6
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			w, err := Record(core.Script{Seed: int64(seed), N: n}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range w.Points() {
				if err := w.RunPoint(k, ArmInline); err != nil {
					// Inline cleaning is the baseline; a failure here is
					// TestCrashPointSweep's department, not a regression
					// introduced by the background cleaner.
					t.Fatalf("inline baseline failed: %v", err)
				}
				if err := w.RunPoint(k, ArmBackground); err != nil {
					t.Errorf("background cleaner introduced a new failure: %v", err)
				}
			}
		})
	}
}

// TestPinnedCrashPointsBG replays the historical pinned crash points
// with the background cleaner enabled. The exact block position of each
// bug no longer replays bit for bit (the cleaner perturbs the write
// sequence), but recovery must stay correct at the same cut points.
func TestPinnedCrashPointsBG(t *testing.T) {
	cases := []struct {
		seed int64
		n    int
		k    int64
	}{
		{162, 60, 24},
		{162, 120, 25},
		{37, 120, 23},
		{127, 120, 95},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("seed=%d/n=%d/k=%d", c.seed, c.n, c.k), func(t *testing.T) {
			t.Parallel()
			w, err := Record(core.Script{Seed: c.seed, N: c.n}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.RunPoint(c.k, ArmBackground); err != nil {
				t.Fatal(err)
			}
		})
	}
}
