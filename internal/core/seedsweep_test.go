package core

import (
	"fmt"
	"testing"

	"repro/internal/disk"
)

// TestCrashRecoverySeedSweep runs many deterministic random workloads,
// each followed by sync + power cut + roll-forward mount, verifying full
// model equivalence and structural consistency. It is the package's
// heaviest regression net for recovery; the three bugs it has caught so
// far (rename into an unrecovered directory, stale inode-block refcounts,
// version-uid instability across truncation) were all invisible to the
// targeted tests. Mid-workload power cuts are covered separately by the
// crash-point harness in internal/crashtest.
func TestCrashRecoverySeedSweep(t *testing.T) {
	seeds := int64(120)
	if testing.Short() {
		seeds = 20
	}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{30, 60, 80} {
				script := Script{Seed: seed, N: n}
				d := disk.MustNew(disk.DefaultGeometry(8192))
				fs, err := Format(d, testOptions())
				if err != nil {
					t.Fatal(err)
				}
				model := applyScript(t, fs, script)
				if err := fs.Sync(); err != nil {
					t.Fatal(err)
				}
				d.Crash()
				d.Reopen()
				fs2, err := Mount(d, testOptions())
				if err != nil {
					t.Fatalf("seed %d n %d: Mount: %v", seed, n, err)
				}
				mustVerify(t, model, fs2)
				mustMatchWalk(t, fs2)
			}
		})
	}
}
