package crashtest

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/obs"
)

// TestFaultSweepNVReplay crashes NVSyncAbsorb workloads at several cut
// points, keeps the ones that leave redo records pending in the NVRAM,
// and sweeps media faults over every block the replaying recovery mount
// reads. The contract under fault is FaultSweep's: no panic, typed
// errors only, degraded mode instead of corruption. Crash points whose
// cut happens to leave the NVRAM empty are skipped — at least one per
// seed must exercise the replay path.
func TestFaultSweepNVReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("nv replay fault sweep is slow")
	}
	for _, seed := range []int64{7, 37} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			s := core.Script{Seed: seed, N: 60}
			cfg := Config{MaxFaultSites: 24}
			swept := 0
			for _, k := range []int64{5, 11, 17, 23} {
				res, err := FaultSweepNVReplay(s, cfg, k)
				if errors.Is(err, ErrNoNVPending) {
					continue
				}
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				if res.Runs == 0 {
					t.Fatalf("k=%d: sweep ran no faulted recoveries", k)
				}
				swept++
				t.Logf("k=%d: %d sites, %d runs, %d typed errors, %d degraded, %d failed mounts",
					k, res.Sites, res.Runs, res.TypedErrors, res.Degraded, res.MountFailed)
			}
			if swept == 0 {
				t.Fatal("no probed crash point left NVRAM records pending")
			}
		})
	}
}

// TestNVReplayCorruptSummaryBeforeCheckpoint pins ROADMAP 6(d): a summary
// block of the checkpoint's head segment, written before the checkpoint
// and then corrupted, used to end usage recomputation's walk of that
// segment as if the log were torn there — the mount came up undegraded
// with the segment's live bytes undercounted, or failed on the usage
// table's underflow check once NVRAM replay freed a block there. Mount no
// longer walks that part of the segment (the checkpoint's own count
// stands), so at these crash points it does not read blocks 8 and 10 at
// all. The sweep faults them anyway: no mount may fail over them, and its
// corrupt arm demands a clean Check() of every mount left undegraded.
func TestNVReplayCorruptSummaryBeforeCheckpoint(t *testing.T) {
	s := core.Script{Seed: 37, N: 60}
	for _, k := range []int64{17, 23} {
		base, err := FaultSweepNVReplay(s, Config{MaxFaultSites: 24}, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		res, err := FaultSweepNVReplay(s, Config{MaxFaultSites: 24, ExtraFaultSites: []int64{8, 10}}, k)
		if err != nil {
			t.Fatalf("k=%d, blocks 8 and 10 faulted too: %v", k, err)
		}
		if res.Runs != base.Runs+4 || res.MountFailed != base.MountFailed {
			t.Errorf("k=%d: %d failed mounts in %d runs, %d in %d with blocks 8 and 10 faulted too: want 4 more runs and no more failures",
				k, base.MountFailed, base.Runs, res.MountFailed, res.Runs)
		}
	}
}

// TestNVBoundaryReadFaultNoSilentLoss pins the flush-boundary scan
// against the shape the random sweeps rarely produce: a crash that
// leaves NVRAM records pending AFTER several complete, TxnEnd-marked
// flush groups, with a read fault landing on one of the earlier groups'
// summary blocks. Those groups' NVRAM records were discarded when their
// flushes succeeded, so a boundary scan that silently lowers the replay
// limit at the unreadable summary discards acknowledged data with no
// re-derivation (and replays the surviving records against a stale
// namespace).
//
// Two assertions pin the contract. First, the general one: for every
// block the replaying recovery reads, a read-error fault must make the
// recovery fail typed, degrade, or recover every acknowledged byte
// exactly. Second, the specific one: at least one faulted site must
// degrade FROM THE ROLL-FORWARD SCAN ("roll-forward summary ...
// unreadable"), i.e. the scan itself must walk up to the unreadable
// summary and refuse to pick a boundary below it. A boundary scan that
// silently truncates instead happens to be rescued today by the
// usage-recomputation pass re-reading the same summaries and degrading
// there — an accident of the repair ordering, not a durability
// guarantee; any future change that narrows that re-walk (checkpointed
// usage, verify-free mounts) would convert the truncation into silent
// loss of acknowledged flush groups. The reason check pins the
// deliberate detection so the accidental one cannot mask a regression.
func TestNVBoundaryReadFaultNoSilentLoss(t *testing.T) {
	opts := core.Options{
		SegmentBlocks:  32,
		MaxInodes:      2048,
		CleanLowWater:  4,
		CleanHighWater: 8,
		CleanBatch:     4,
		NoGroupCommit:  true, // deterministic inline flushes
		NVSyncAbsorb:   true,
	}
	const nvBytes = 4096

	// Build the crash image. The NVRAM is sized so every second 3 KB
	// WriteFile overflows it and forces an inline backpressure flush: a
	// complete TxnEnd flush group whose records leave the NVRAM.
	d := disk.MustNew(disk.DefaultGeometry(4096))
	fopts := opts
	nv := core.NewNVRAM(nvBytes)
	fopts.NVRAM = nv
	fs, err := core.Format(d, fopts)
	if err != nil {
		t.Fatal(err)
	}
	payload := func(c byte) []byte { return bytes.Repeat([]byte{c}, 3000) }
	files := map[string][]byte{
		"/a": payload('a'), "/b": payload('b'),
		"/c": payload('c'), "/d": payload('d'),
		"/e": []byte("pending in nvram"),
	}
	for _, p := range []string{"/a", "/b", "/c", "/d", "/e"} {
		if err := fs.WriteFile(p, files[p]); err != nil {
			t.Fatalf("write %s: %v", p, err)
		}
	}
	if n := fs.Stats().NVBackpressureFlushes; n < 2 {
		t.Fatalf("want >= 2 complete flush groups before the cut, got %d", n)
	}
	if nv.Pending() == 0 {
		t.Fatal("no NVRAM records pending at the cut")
	}
	nvImage := nv.Bytes()
	snap := d.Snapshot() // the crash image: /a../d flushed, /e only in NVRAM
	_ = fs.Unmount()     // joins goroutines; the snapshot predates it

	mountNV := func(dd *disk.Disk, tr *obs.Tracer) (*core.FS, error) {
		o := opts
		rnv := core.NewNVRAM(nvBytes)
		if err := rnv.Restore(nvImage); err != nil {
			return nil, err
		}
		o.NVRAM = rnv
		o.Tracer = tr
		return core.Mount(dd, o)
	}

	// Trace every block the replaying recovery reads; each is a fault site.
	sink := newSiteSink("read")
	tfs, err := mountNV(disk.FromSnapshot(snap), obs.New(sink))
	if err != nil {
		t.Fatalf("trace mount: %v", err)
	}
	tfs.Unmount()
	sites := sortedKeys(sink.sites())

	scanDegraded := 0
	for _, site := range sites {
		fd := disk.FromSnapshot(snap)
		if err := fd.InjectFault(disk.Fault{Kind: disk.FaultReadError, Addr: site}); err != nil {
			t.Fatal(err)
		}
		ffs, merr := mountNV(fd, nil)
		if merr != nil {
			if !typedFaultErr(merr) {
				t.Fatalf("site %d: untyped mount error: %v", site, merr)
			}
			t.Logf("site %d: mount failed typed: %v", site, merr)
			continue
		}
		if ffs.Degraded() {
			reason := ffs.DegradedReason()
			t.Logf("site %d: degraded: %s", site, reason)
			if strings.Contains(reason, "roll-forward summary") {
				scanDegraded++
			}
			ffs.Unmount()
			continue
		}
		t.Logf("site %d: clean recovery", site)
		// Neither failed nor degraded: nothing acknowledged may be lost.
		for p, want := range files {
			got, err := ffs.ReadFile(p)
			if err != nil {
				t.Fatalf("site %d: %s unreadable after a clean recovery: %v", site, p, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("site %d: %s recovered with %d bytes, want %d", site, p, len(got), len(want))
			}
		}
		ffs.Unmount()
	}
	if scanDegraded == 0 {
		t.Fatal("no faulted site degraded from the roll-forward scan itself: " +
			"the boundary scan silently truncated at the unreadable summary")
	}
}
