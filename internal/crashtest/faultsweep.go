package crashtest

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// The media-fault sweep. Where the crash-point sweep (crashtest.go)
// explores every place a power cut can land, this harness explores every
// place a media fault can land: it runs a workload to completion, traces
// which block addresses a full verification walk actually reads (the
// "read sites"), and then replays that walk once per (site, fault kind)
// against a clone of the final image with one fault injected. The
// contract it enforces on every run:
//
//   - no panic, ever;
//   - every failing operation fails with a typed error (ErrMediaRead,
//     ErrCorrupted/ErrCorrupt, ErrDegraded, ErrNotFound, or a layout
//     decode sentinel) — never a raw or wrapped internal error;
//   - a read that succeeds returns exactly the expected bytes — silent
//     corruption must never pass through verification;
//   - paths whose read set does not include the faulted block are
//     unaffected: they must remain readable and byte-identical.
//
// This file also holds what the four fault sweeps share: the site sink
// and sampler, the panic guard, the faulted clone, the clean-check stanza,
// the final-image preamble and the absorbed-run contract.

// siteSink collects the block addresses of device requests of one kind
// (op is "read" or "write"), including the attempted prefix of torn or
// faulted transfers. It is attached as a tracer sink to the mounts whose
// fault sites a sweep traces.
type siteSink struct {
	op    string
	mu    sync.Mutex
	addrs map[int64]bool
}

func newSiteSink(op string) *siteSink { return &siteSink{op: op, addrs: map[int64]bool{}} }

func (s *siteSink) Emit(e obs.Event) {
	if e.Kind != obs.KindDiskIO || e.Disk == nil || e.Disk.Op != s.op {
		return
	}
	s.mu.Lock()
	for i := 0; i < e.Disk.Blocks; i++ {
		s.addrs[e.Disk.Addr+int64(i)] = true
	}
	s.mu.Unlock()
}

// sites returns a copy of the addresses seen so far.
func (s *siteSink) sites() map[int64]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.addrs)
}

// sortedKeys lists a set of block addresses or crash points in ascending
// order.
func sortedKeys(set map[int64]bool) []int64 {
	out := make([]int64, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// sampleSites picks max evenly spaced sites — all of them when the set
// already fits, or when max is zero or negative. Config.MaxFaultSites says
// what each sweep passes.
func sampleSites(in []int64, max int) []int64 {
	if max <= 0 || len(in) <= max {
		return in
	}
	out := make([]int64, 0, max)
	for j := 0; j < max; j++ {
		out = append(out, in[j*len(in)/max])
	}
	return out
}

// guarded executes one run of a sweep and turns a panic into a contract
// violation: "no panic, ever" is the first line of every sweep's contract.
func guarded(run func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("PANIC: %v", r)
		}
	}()
	return run()
}

// faulted clones snap with one media fault armed.
func faulted(snap *disk.Snapshot, f disk.Fault) (*disk.Disk, error) {
	d := disk.FromSnapshot(snap)
	if err := d.InjectFault(f); err != nil {
		return nil, fmt.Errorf("inject: %w", err)
	}
	return d, nil
}

// checkClean runs the structural consistency sweep and reports its first
// problem as an (untyped) error; a Check that itself fails keeps its type.
func checkClean(fs *core.FS) error {
	rep, err := fs.Check()
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	if len(rep.Problems) > 0 {
		return fmt.Errorf("inconsistent: %s", rep.Problems[0])
	}
	return nil
}

// seedErr prefixes a sweep's first violation with the sweep's name and the
// script's seed, for reproduction.
func seedErr(sweep string, s core.Script, err *error) {
	if *err != nil {
		*err = fmt.Errorf("%s seed %d: %w", sweep, s.Seed, *err)
	}
}

// buildFinalImage runs the whole workload once on a freshly formatted disk,
// unmounts cleanly and snapshots the result — faults and destruction are
// then applied to clones of that snapshot — and walks a mounted clone for
// the ground truth: the fault-free final state and its paths in walk order.
func buildFinalImage(s core.Script, cfg Config) (snap *disk.Snapshot, want map[string]recState, paths []string, err error) {
	d0 := disk.MustNew(disk.DefaultGeometry(cfg.DiskBlocks))
	fs, err := core.Format(d0, *cfg.Opts)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("format: %w", err)
	}
	for i, op := range s.Ops() {
		if err := core.ApplyOp(fs, op); err != nil {
			fs.Unmount()
			return nil, nil, nil, fmt.Errorf("op %d (%s): %w", i, op, err)
		}
	}
	if err := fs.Unmount(); err != nil {
		return nil, nil, nil, fmt.Errorf("unmount: %w", err)
	}
	snap = d0.Snapshot()
	fs, err = core.Mount(disk.FromSnapshot(snap), *cfg.Opts)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("baseline mount: %w", err)
	}
	defer fs.Unmount()
	t, err := walkTree(fs, false)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("baseline walk: %w", err)
	}
	for p := range t.rec {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	return snap, t.rec, paths, nil
}

// diffWalk compares a run's final state against its baseline, naming the
// first divergence.
func diffWalk(got, want map[string]recState) error {
	for p, w := range want {
		g, ok := got[p]
		if !ok {
			return fmt.Errorf("%s: missing", p)
		}
		if g.dir != w.dir {
			return fmt.Errorf("%s: kind differs (dir=%v, want %v)", p, g.dir, w.dir)
		}
		if !bytes.Equal(g.data, w.data) {
			return fmt.Errorf("%s: content differs (%d bytes, want %d)", p, len(g.data), len(w.data))
		}
	}
	for p := range got {
		if _, ok := want[p]; !ok {
			return fmt.Errorf("%s: present but not in the baseline", p)
		}
	}
	return nil
}

// absorbed is the contract of a run that must not show what the media did
// to it — a write fault the flush path retries or relocates around, or the
// remount of a repaired image: d mounts under opts, every op succeeds, the
// file system is not degraded and checks clean, its walk equals want (nil:
// there is no baseline yet) and it unmounts cleanly. ops is nil for a
// remount check. It returns the walk, and the metrics as they stood before
// the unmount.
func absorbed(d *disk.Disk, opts core.Options, ops []core.Op, want map[string]recState) (got map[string]recState, m obs.Snapshot, err error) {
	fs, err := core.Mount(d, opts)
	if err != nil {
		return nil, m, fmt.Errorf("mount: %w", err)
	}
	defer func() {
		if uerr := fs.Unmount(); err == nil && uerr != nil {
			err = fmt.Errorf("unmount: %w", uerr)
		}
	}()
	for i, op := range ops {
		if err := core.ApplyOp(fs, op); err != nil {
			return nil, m, fmt.Errorf("op %d (%s) must succeed: %w", i, op, err)
		}
	}
	if fs.Degraded() {
		return nil, m, fmt.Errorf("degraded: %s", fs.DegradedReason())
	}
	if err := checkClean(fs); err != nil {
		return nil, m, err
	}
	t, err := walkTree(fs, false)
	if err != nil {
		return nil, m, fmt.Errorf("walk: %w", err)
	}
	if want != nil {
		if err := diffWalk(t.rec, want); err != nil {
			return nil, m, fmt.Errorf("state diverged from the baseline: %w", err)
		}
	}
	return t.rec, fs.Metrics(), nil
}

// FaultSweepResult summarizes a completed fault sweep.
type FaultSweepResult struct {
	Sites       int // distinct read sites faulted
	Runs        int // mount+verify runs executed (two fault kinds per site)
	TypedErrors int // reads that failed, all with typed errors
	Degraded    int // runs that ended in degraded read-only mode
	MountFailed int // runs where the faulted mount itself failed (typed)
}

// typedFaultErr reports whether err is one of the errors a media fault
// is allowed to surface as.
func typedFaultErr(err error) bool {
	return errors.Is(err, disk.ErrMediaRead) ||
		errors.Is(err, disk.ErrMediaWrite) ||
		errors.Is(err, core.ErrCorrupt) ||
		errors.Is(err, core.ErrDegraded) ||
		errors.Is(err, core.ErrNoCheckpoint) ||
		errors.Is(err, core.ErrNotFound) ||
		errors.Is(err, layout.ErrBadMagic) ||
		errors.Is(err, layout.ErrBadChecksum)
}

// sweepReadFaults is the loop of both read-side sweeps: one guarded run
// per (site, kind ∈ {read error, corruption}) against a clone of snap with
// that fault armed.
func sweepReadFaults(res *FaultSweepResult, snap *disk.Snapshot, sites []int64, run func(fd *disk.Disk, site int64, kind disk.FaultKind) error) error {
	res.Sites = len(sites)
	for _, site := range sites {
		for _, kind := range []disk.FaultKind{disk.FaultReadError, disk.FaultCorrupt} {
			res.Runs++
			err := guarded(func() error {
				fd, err := faulted(snap, disk.Fault{Kind: kind, Addr: site, Seed: site*2654435761 + int64(kind)})
				if err != nil {
					return err
				}
				return run(fd, site, kind)
			})
			if err != nil {
				return fmt.Errorf("site %d kind %d: %w", site, kind, err)
			}
		}
	}
	return nil
}

// FaultSweep runs the media-fault sweep for a workload script. It
// returns the sweep summary and the first contract violation found (nil
// when every run upheld it), wrapped with the script's seed.
func FaultSweep(s core.Script, cfg Config) (res *FaultSweepResult, err error) {
	defer seedErr("faultsweep", s, &err)
	cfg = cfg.withDefaults()
	snap, want, paths, err := buildFinalImage(s, cfg)
	if err != nil {
		return nil, err
	}

	// visit resolves and fully reads one path: nil when it succeeds with
	// exactly the expected bytes.
	visit := func(fs *core.FS, p string) error {
		if want[p].dir {
			if _, err := fs.Stat(p); err != nil {
				return err
			}
			_, err := fs.ReadDir(p)
			return err
		}
		got, err := fs.ReadFile(p)
		if err == nil && !bytes.Equal(got, want[p].data) {
			return fmt.Errorf("silent corruption: read %d bytes not matching the expected %d", len(got), len(want[p].data))
		}
		return err
	}

	// Dependency tracing: for each path, the set of blocks a cold mount
	// reads to resolve and fully read it. A fault outside deps[p] must
	// not affect p. The mount-only read set bounds which faults may fail
	// the mount itself. (The set is taken before the unmount, whose own
	// reads are no part of the walk.)
	traceReads := func(p string) (map[int64]bool, error) {
		sink := newSiteSink("read")
		o := *cfg.Opts
		o.Tracer = obs.New(sink)
		fs, err := core.Mount(disk.FromSnapshot(snap), o)
		if err != nil {
			return nil, err
		}
		defer fs.Unmount()
		if p != "" {
			err = visit(fs, p)
		}
		return sink.sites(), err
	}
	mountDeps, err := traceReads("")
	if err != nil {
		return nil, fmt.Errorf("mount trace: %w", err)
	}
	deps := make(map[string]map[int64]bool, len(paths))
	// The read sites: every block any traced walk touched.
	siteSet := maps.Clone(mountDeps)
	for _, p := range paths {
		if deps[p], err = traceReads(p); err != nil {
			return nil, fmt.Errorf("trace %s: %w", p, err)
		}
		maps.Copy(siteSet, deps[p])
	}
	sites := sampleSites(sortedKeys(siteSet), cfg.MaxFaultSites)

	res = &FaultSweepResult{}
	return res, sweepReadFaults(res, snap, sites, func(fd *disk.Disk, site int64, _ disk.FaultKind) error {
		fs, err := core.Mount(fd, *cfg.Opts)
		if err != nil {
			if !typedFaultErr(err) {
				return fmt.Errorf("mount failed with untyped error: %w", err)
			}
			if !mountDeps[site] {
				return fmt.Errorf("mount failed though the site is not in the mount read set: %w", err)
			}
			res.MountFailed++
			return nil
		}
		defer fs.Unmount()
		if fs.Degraded() {
			res.Degraded++
		}
		for _, p := range paths {
			err := visit(fs, p)
			switch {
			case err == nil:
			case !typedFaultErr(err):
				return fmt.Errorf("%s: untyped failure: %w", p, err)
			case !deps[p][site]:
				return fmt.Errorf("%s: unaffected path failed: %w", p, err)
			default:
				res.TypedErrors++
			}
		}
		return nil
	})
}
