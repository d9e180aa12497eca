package crashtest

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestCrashPointSweep is the tentpole: many workload seeds, each swept
// across its enumerated crash points. Non-short mode is required to
// explore at least 200 distinct crash points across at least 20 seeds.
func TestCrashPointSweep(t *testing.T) {
	seeds, n, cfg := 24, 60, Config{}
	if testing.Short() {
		seeds, n, cfg.MaxPoints = 6, 40, 6
	}
	var points int64
	t.Run("sweep", func(t *testing.T) {
		for seed := 0; seed < seeds; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				t.Parallel()
				p, err := Sweep(core.Script{Seed: int64(seed), N: n}, cfg)
				atomic.AddInt64(&points, int64(p))
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	})
	if !testing.Short() && points < 200 {
		t.Fatalf("swept only %d crash points across %d seeds, want >= 200", points, seeds)
	}
	t.Logf("swept %d crash points across %d seeds", points, seeds)
}

// Recording the same script twice must agree block for block; crash
// replay depends on it.
func TestRecordDeterministic(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 4; seed++ {
		s := core.Script{Seed: seed, N: 50}
		a, err := Record(s, Config{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Record(s, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.cum, b.cum) {
			t.Fatalf("seed %d: write counts differ between recordings:\n%v\n%v", seed, a.cum, b.cum)
		}
	}
}

// TestExhaustiveSmallWorkload turns off sampling and walks every single
// write boundary of a few short workloads. Workloads without a Sync or
// Checkpoint may persist nothing (small writes stay buffered in the
// current segment), so seeds are filtered to ones that touch the disk.
func TestExhaustiveSmallWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep is slow")
	}
	found := 0
	for seed := int64(100); seed < 120 && found < 3; seed++ {
		s := core.Script{Seed: seed, N: 12}
		w, err := Record(s, Config{MaxPoints: -1})
		if err != nil {
			t.Fatal(err)
		}
		if w.Total() == 0 {
			continue
		}
		found++
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			p, err := Sweep(s, Config{MaxPoints: -1})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("exhaustively swept %d crash points", p)
		})
	}
	if found == 0 {
		t.Fatal("no seed in [100,120) persists any blocks")
	}
}

// TestPointsCoverSyncBoundaries checks the stratified sampler always
// includes the boundaries around Sync/Checkpoint completions, where torn
// checkpoint regions live.
func TestPointsCoverSyncBoundaries(t *testing.T) {
	t.Parallel()
	w, err := Record(core.Script{Seed: 7, N: 60}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	points := map[int64]bool{}
	for _, k := range w.Points() {
		points[k] = true
	}
	for i, op := range w.Ops {
		if op.Kind != core.OpSync && op.Kind != core.OpCheckpoint {
			continue
		}
		for _, k := range []int64{w.cum[i] - 1, w.cum[i]} {
			if k >= 0 && k < w.Total() && !points[k] {
				t.Fatalf("sync boundary k=%d (op %d) missing from sampled points", k, i)
			}
		}
	}
}

// TestRunPointRefusesOtherModel: an NVRAM arm on a Record workload, or a
// disk arm on a RecordNV one, is refused by name before a disk is touched
// (the second direction used to surface as "nondeterministic replay").
func TestRunPointRefusesOtherModel(t *testing.T) {
	t.Parallel()
	s := core.Script{Seed: 7, N: 30}
	plain, err := Record(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	nv, err := RecordNV(s, Config{}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		w   *Workload
		arm Arm
	}{
		{plain, ArmNVSurvives}, {plain, ArmNVLost}, {nv, ArmInline}, {nv, ArmBackground},
	} {
		err := c.w.RunPoint(0, c.arm)
		if err == nil || !strings.Contains(err.Error(), "recorded for the other durability model") {
			t.Errorf("%s arm on the other model's recording: got %v, want the refusal", c.arm, err)
		}
	}
}

// TestSweepsLeakNoGoroutines runs one small call of every sweep and
// requires the goroutine count back at its start: every mount a sweep
// makes — crashed, faulted, traced, salvaged — is unmounted, so no
// committer or cleaner goroutine outlives it pinning an FS and a disk
// clone. Not parallel: it counts the process's goroutines.
func TestSweepsLeakNoGoroutines(t *testing.T) {
	s := core.Script{Seed: 3, N: 40}
	sweeps := []struct {
		name string
		run  func() error
	}{
		{"Sweep", func() error { _, err := Sweep(s, Config{MaxPoints: 6}); return err }},
		{"SweepNV", func() error { _, err := SweepNV(s, Config{MaxPoints: 4}); return err }},
		{"FaultSweep", func() error { _, err := FaultSweep(s, Config{MaxFaultSites: 6}); return err }},
		{"FaultSweepNVReplay", func() error {
			for k := int64(3); k < 40; k += 4 {
				if _, err := FaultSweepNVReplay(s, Config{MaxFaultSites: 6}, k); !errors.Is(err, ErrNoNVPending) {
					return err
				}
			}
			return errors.New("no probed crash point left NVRAM records pending")
		}},
		{"FaultSweepWrites", func() error { _, err := FaultSweepWrites(s, Config{MaxFaultSites: 4}); return err }},
		{"DestructionSweep", func() error { _, err := DestructionSweep(s, 6, Config{DiskBlocks: 4096}); return err }},
	}
	for _, sw := range sweeps {
		before := runtime.NumGoroutine()
		if err := sw.run(); err != nil {
			t.Fatalf("%s: %v", sw.name, err)
		}
		// A goroutine Unmount just joined may still be on its way out; one
		// left by a mounted file system never goes.
		for wait := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(wait); {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s: %d goroutines before, %d after: a mount was left without its Unmount", sw.name, before, n)
		}
	}
}
