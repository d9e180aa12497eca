package crashtest

import (
	"errors"
	"fmt"
	"slices"

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
// the recovery mounts that FaultSweep never sees. It crashes an
// NVSyncAbsorb workload at crash point k so that redo records are left
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
//   - on a successful mount, walking the recovered tree either succeeds
//     or fails with typed errors (degraded read-only mode counts as
//     success: intact files must stay readable), and a mount that a
//     corrupted block left undegraded passes Check();
//   - the fault-free baseline must satisfy the same consistency check
//     and durability oracle as the crash sweep (byte-exact comparison
//     against the baseline is deliberately NOT required of faulted runs:
//     a fault that lands in the roll-forward region legitimately changes
//     how much of the torn tail is recovered).
func FaultSweepNVReplay(s core.Script, cfg Config, k int64) (*FaultSweepResult, error) {
	cfg = cfg.withDefaults()
	// Serialized commit mode: no async committer racing the crash point,
	// so the disk-write count at which each op completes — and therefore
	// the NVRAM contents at the cut — are deterministic.
	w, err := RecordNV(s, cfg, true)
	if err != nil {
		return nil, fmt.Errorf("nvfaultsweep seed %d: %w", s.Seed, err)
	}
	if k < 0 || k >= w.Total() {
		return nil, fmt.Errorf("nvfaultsweep seed %d: crash point %d outside [0,%d)", s.Seed, k, w.Total())
	}
	res := &FaultSweepResult{}

	// Crash the workload at k with the NVRAM attached, exactly like
	// RunPointNV's pre-crash replay.
	opts := *w.cfg.Opts
	opts.NVSyncAbsorb = true
	opts.NoGroupCommit = w.nvNoGC
	nv := core.NewNVRAM(w.cfg.NVBytes)
	opts.NVRAM = nv
	d := disk.FromSnapshot(w.snap)
	fs, err := core.Mount(d, opts)
	if err != nil {
		return nil, fmt.Errorf("nvfaultsweep seed %d: pre-crash mount: %w", s.Seed, err)
	}
	d.FailAfterWrites(k)
	completed, crashed := -1, -1
	for i, op := range w.Ops {
		if err := core.ApplyOp(fs, op); err != nil {
			if !d.Crashed() {
				fs.Unmount()
				return nil, fmt.Errorf("nvfaultsweep seed %d: op %d (%s) failed without a crash: %w", s.Seed, i, op, err)
			}
			crashed = i
			break
		}
		completed = i
	}
	if crashed == -1 {
		crashed = completed
	}
	_ = fs.Unmount()
	nvImage := nv.Bytes()
	if len(nvImage) == 0 {
		return nil, fmt.Errorf("nvfaultsweep seed %d, crash point %d: %w", s.Seed, k, ErrNoNVPending)
	}
	d.Reopen()
	crashSnap := d.Snapshot()

	mountNV := func(dd *disk.Disk, tr *obs.Tracer) (*core.FS, error) {
		o := *w.cfg.Opts
		o.NVSyncAbsorb = true
		o.NoGroupCommit = w.nvNoGC
		rnv := core.NewNVRAM(w.cfg.NVBytes)
		if err := rnv.Restore(nvImage); err != nil {
			return nil, err
		}
		o.NVRAM = rnv
		o.Tracer = tr
		return core.Mount(dd, o)
	}

	// Fault-free baseline: the replaying recovery must hold the same bar
	// as the crash sweep's survives arm.
	bfs, err := mountNV(disk.FromSnapshot(crashSnap), nil)
	if err != nil {
		return nil, fmt.Errorf("nvfaultsweep seed %d: baseline recovery mount: %w", s.Seed, err)
	}
	rep, err := bfs.Check()
	if err != nil {
		return nil, fmt.Errorf("nvfaultsweep seed %d: baseline check: %w", s.Seed, err)
	}
	if len(rep.Problems) > 0 {
		return nil, fmt.Errorf("nvfaultsweep seed %d: baseline recovery inconsistent: %s", s.Seed, rep.Problems[0])
	}
	if err := w.hist.check(bfs, completed, crashed); err != nil {
		return nil, fmt.Errorf("nvfaultsweep seed %d: baseline oracle: %w", s.Seed, err)
	}
	bfs.Unmount()

	// Trace the recovery's read sites: every block the replaying mount
	// touches is a place a media fault can land.
	sink := newReadSink()
	tfs, err := mountNV(disk.FromSnapshot(crashSnap), obs.New(sink))
	if err != nil {
		return nil, fmt.Errorf("nvfaultsweep seed %d: trace mount: %w", s.Seed, err)
	}
	tfs.Unmount()
	siteSet := sink.snapshot()
	sites := make([]int64, 0, len(siteSet))
	for a := range siteSet {
		sites = append(sites, a)
	}
	slices.Sort(sites)
	if cfg.MaxFaultSites > 0 && len(sites) > cfg.MaxFaultSites {
		sampled := make([]int64, 0, cfg.MaxFaultSites)
		for j := 0; j < cfg.MaxFaultSites; j++ {
			sampled = append(sampled, sites[j*len(sites)/cfg.MaxFaultSites])
		}
		sites = sampled
	}
	sites = append(sites, cfg.ExtraFaultSites...)
	res.Sites = len(sites)

	countTyped := func(opErr error, what string) error {
		if opErr == nil {
			return nil
		}
		if !typedFaultErr(opErr) {
			return fmt.Errorf("%s: untyped error: %w", what, opErr)
		}
		res.TypedErrors++
		return nil
	}
	walkTolerant := func(f *core.FS) error {
		var walk func(dir string) error
		walk = func(dir string) error {
			entries, err := f.ReadDir(dir)
			if err != nil {
				return countTyped(err, "readdir "+dir)
			}
			for _, e := range entries {
				full := dir + "/" + e.Name
				if dir == "/" {
					full = "/" + e.Name
				}
				info, err := f.Stat(full)
				if err != nil {
					if err := countTyped(err, "stat "+full); err != nil {
						return err
					}
					continue
				}
				if info.IsDir {
					if err := walk(full); err != nil {
						return err
					}
					continue
				}
				_, rerr := f.ReadFile(full)
				if err := countTyped(rerr, "read "+full); err != nil {
					return err
				}
			}
			return nil
		}
		return walk("/")
	}

	runOne := func(site int64, kind disk.FaultKind) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("PANIC: %v", r)
			}
		}()
		fd := disk.FromSnapshot(crashSnap)
		if err := fd.InjectFault(disk.Fault{Kind: kind, Addr: site, Seed: site*2654435761 + int64(kind)}); err != nil {
			return fmt.Errorf("inject: %w", err)
		}
		ffs, merr := mountNV(fd, nil)
		if merr != nil {
			if !typedFaultErr(merr) {
				return fmt.Errorf("recovery mount failed with untyped error: %w", merr)
			}
			res.MountFailed++
			return nil
		}
		defer ffs.Unmount()
		if ffs.Degraded() {
			res.Degraded++
			return walkTolerant(ffs)
		}
		if kind == disk.FaultReadError {
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
			n, oerr := w.hist.checkFaulted(ffs, completed, crashed)
			res.TypedErrors += n
			if oerr != nil {
				return fmt.Errorf("non-degraded recovery under a read fault: %w", oerr)
			}
			return nil
		}
		if err := walkTolerant(ffs); err != nil || ffs.Degraded() {
			return err
		}
		// A corruption the recovery neither reported nor degraded over
		// must not have bent what it rebuilt: a summary that no longer
		// decodes may end the log early, never a segment's live count.
		rep, cerr := ffs.Check()
		if cerr != nil {
			return countTyped(cerr, "check after a corrupt-arm recovery")
		}
		if len(rep.Problems) > 0 {
			return fmt.Errorf("non-degraded recovery under a corrupt block is inconsistent: %s", rep.Problems[0])
		}
		return nil
	}

	for _, site := range sites {
		for _, kind := range []disk.FaultKind{disk.FaultReadError, disk.FaultCorrupt} {
			res.Runs++
			if err := runOne(site, kind); err != nil {
				return res, fmt.Errorf("nvfaultsweep seed %d: site %d kind %d: %w", s.Seed, site, kind, err)
			}
		}
	}
	return res, nil
}
