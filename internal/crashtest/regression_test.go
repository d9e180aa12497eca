package crashtest

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// Pinned crash points that once produced incorrect recovery. Each entry
// is a (seed, N, k) triple found by the sweep; keep them exact so the
// original failure replays bit for bit.
//
// The first three pin the displaced-entry repair bug: a rename into a
// directory whose inode never reached the log is undone (the file stays
// under its old name), but a later remove of the renamed entry still
// applied its nlink=0 and freed the inode, leaving the old directory
// entry pointing at an unallocated inum. Fixed by tracking the effective
// entry location across undone renames in applyDirOps (recovery.go).
// Seed 162: rename /f0 -> /d8/r9 (op 9), remove /d8/r9 (op 12), crash 7
// blocks into the op-22 sync — dirlog persisted, /d8's inode did not.
func TestPinnedCrashPoints(t *testing.T) {
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
			if err := w.RunPoint(c.k, ArmInline); err != nil {
				t.Fatal(err)
			}
		})
	}
}
