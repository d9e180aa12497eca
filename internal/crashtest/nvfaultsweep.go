package crashtest

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/obs"
)

// ErrNoNVPending reports that the chosen crash point cut the workload at
// a moment when the NVRAM held no redo records (for example mid-way
// through a checkpoint, after the log flush already cleared it), so
// there is no replay path to sweep. Callers probe several crash points
// and skip these.
var ErrNoNVPending = errors.New("crashtest: crash point leaves no NVRAM records to replay")

// FaultSweepNVReplay is the media-fault sweep for the NVRAM replay path:
// the recovery mounts that FaultSweep never sees. It crashes a workload
// run over an NVRAM at crash point k so that redo records are left
// pending in the NVRAM, then traces every block address the
// NVRAM-replaying recovery mount reads — checkpoint regions, the
// roll-forward scan, and the reads issued by replaying the records
// themselves — and re-runs that recovery once per (site, fault kind)
// with one fault injected into a clone of the crashed image and a clone
// of the NVRAM. The contract:
//
//   - no panic, ever — a half-recovered image plus hostile media is the
//     worst input the mount path takes;
//   - the recovery mount either succeeds or fails with a typed error;
//   - a recovery mount that fails leaves the NVRAM image byte-for-byte
//     untouched, so a remount on healthy media or after SalvageImage
//     still replays every acknowledged operation (DESIGN.md §4; handing
//     back a degraded file system with records unreplayed would show a
//     namespace older than what Sync acknowledged);
//   - on a successful mount, walking the recovered tree either succeeds
//     or fails with typed errors (degraded read-only mode counts as
//     success: intact files must stay readable), and a mount that a
//     corrupted block left undegraded passes Check();
//   - the fault-free baseline must satisfy the same consistency check
//     and durability oracle as the crash sweep (byte-exact comparison
//     against the baseline is deliberately NOT required of faulted runs:
//     a fault that lands in the roll-forward region legitimately changes
//     how much of the torn tail is recovered).
func FaultSweepNVReplay(s core.Script, cfg Config, k int64) (res *FaultSweepResult, err error) {
	defer seedErr("nvfaultsweep", s, &err)
	cfg = cfg.withDefaults()
	// Nothing flushes behind the workload's back, so the disk-write count
	// at which each op completes — and therefore the NVRAM contents at the
	// cut — are deterministic.
	w, err := RecordNV(s, cfg)
	if err != nil {
		return nil, err
	}
	if k < 0 || k >= w.Total() {
		return nil, fmt.Errorf("crash point %d outside [0,%d)", k, w.Total())
	}

	// Crash the workload at k with the NVRAM attached: ArmNVSurvives'
	// replay, keeping the crashed image and the NVRAM's contents.
	opts := nvOptions(cfg)
	d := disk.FromSnapshot(w.snap)
	c, err := w.replay(d, opts, k)
	if err != nil {
		return nil, err
	}
	nvImage := opts.NVRAM.Bytes()
	if len(nvImage) == 0 {
		return nil, fmt.Errorf("crash point %d: %w", k, ErrNoNVPending)
	}
	d.Reopen()
	crashSnap := d.Snapshot()

	// restored returns the recovery mount's options: a fresh NVRAM holding
	// the crash's records.
	restored := func(tr *obs.Tracer) core.Options {
		o := opts
		o.NVRAM = core.NewNVRAM(cfg.NVBytes)
		if err := o.NVRAM.Restore(nvImage); err != nil {
			panic(fmt.Sprintf("restoring the NVRAM's own image: %v", err))
		}
		o.Tracer = tr
		return o
	}

	// Fault-free baseline: the replaying recovery must hold the same bar
	// as the crash sweep's survives arm.
	if err := w.recover(disk.FromSnapshot(crashSnap), restored(nil), c.completed, c.crashed); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}

	// Trace the recovery's read sites: every block the replaying mount
	// touches is a place a media fault can land.
	sink := newSiteSink("read")
	tfs, err := core.Mount(disk.FromSnapshot(crashSnap), restored(obs.New(sink)))
	if err != nil {
		return nil, fmt.Errorf("trace mount: %w", err)
	}
	tfs.Unmount()
	sites := append(sampleSites(sortedKeys(sink.sites()), cfg.MaxFaultSites), cfg.ExtraFaultSites...)

	res = &FaultSweepResult{}
	return res, sweepReadFaults(res, crashSnap, sites, func(fd *disk.Disk, _ int64, kind disk.FaultKind) error {
		o := restored(nil)
		fs, err := core.Mount(fd, o)
		if err != nil {
			if !typedFaultErr(err) {
				return fmt.Errorf("recovery mount failed with untyped error: %w", err)
			}
			if !bytes.Equal(o.NVRAM.Bytes(), nvImage) {
				return fmt.Errorf("recovery mount failed (%v) and changed the NVRAM image: its records can no longer all be replayed", err)
			}
			res.MountFailed++
			return nil
		}
		defer fs.Unmount()
		if fs.Degraded() {
			res.Degraded++
		} else if kind == disk.FaultReadError {
			// A read-error fault is always detected (the device reports
			// it), so a recovery that neither failed nor degraded had
			// everything it needed: it must satisfy the full durability
			// oracle of the NVRAM-survives arm, with only the state the
			// fault makes unknowable (unreadable content or subtrees)
			// excused. This is what catches silent loss of acknowledged
			// flush groups — e.g. a boundary scan that quietly truncates
			// the log at an unreadable summary instead of degrading.
			// Corruption faults stay on the tolerant-walk contract: a
			// corrupted summary is indistinguishable from the torn end
			// of the log, so recovering less of the tail is legitimate
			// there.
			n, err := w.hist.check(fs, c.completed, c.crashed, true)
			res.TypedErrors += n
			if err != nil {
				return fmt.Errorf("non-degraded recovery under a read fault: %w", err)
			}
			return nil
		}
		t, err := walkTree(fs, true)
		res.TypedErrors += t.typedErrs
		if err != nil || fs.Degraded() {
			return err
		}
		// A corruption the recovery neither reported nor degraded over
		// must not have bent what it rebuilt: a summary that no longer
		// decodes may end the log early, never a segment's live count.
		if err := checkClean(fs); typedFaultErr(err) {
			res.TypedErrors++
		} else if err != nil {
			return fmt.Errorf("non-degraded recovery under a corrupt block: %w", err)
		}
		return nil
	})
}
