package crashtest

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
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

// readSink collects the block addresses of device read requests. It is
// attached as a tracer sink during the dependency-tracing mounts.
type readSink struct {
	mu    sync.Mutex
	addrs map[int64]bool
}

func newReadSink() *readSink { return &readSink{addrs: map[int64]bool{}} }

func (s *readSink) Emit(e obs.Event) {
	if e.Kind != obs.KindDiskIO || e.Disk == nil || e.Disk.Op != "read" {
		return
	}
	s.mu.Lock()
	for i := 0; i < e.Disk.Blocks; i++ {
		s.addrs[e.Disk.Addr+int64(i)] = true
	}
	s.mu.Unlock()
}

func (s *readSink) snapshot() map[int64]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int64]bool, len(s.addrs))
	for a := range s.addrs {
		out[a] = true
	}
	return out
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

// FaultSweep runs the media-fault sweep for a workload script. It
// returns the sweep summary and the first contract violation found (nil
// when every run upheld it), wrapped with the script's seed.
func FaultSweep(s core.Script, cfg Config) (*FaultSweepResult, error) {
	cfg = cfg.withDefaults()
	res := &FaultSweepResult{}

	// Build the final image: run the whole workload once and unmount
	// cleanly. Faults are then injected into clones of this image.
	d0 := disk.MustNew(disk.DefaultGeometry(cfg.DiskBlocks))
	fs, err := core.Format(d0, *cfg.Opts)
	if err != nil {
		return nil, fmt.Errorf("faultsweep seed %d: format: %w", s.Seed, err)
	}
	ops := s.Ops()
	for i, op := range ops {
		if err := core.ApplyOp(fs, op); err != nil {
			return nil, fmt.Errorf("faultsweep seed %d: op %d (%s): %w", s.Seed, i, op, err)
		}
	}
	if err := fs.Unmount(); err != nil {
		return nil, fmt.Errorf("faultsweep seed %d: unmount: %w", s.Seed, err)
	}
	snap := d0.Snapshot()

	// Ground truth: the fault-free final state, plus the walk order.
	d := disk.FromSnapshot(snap)
	fs, err = core.Mount(d, *cfg.Opts)
	if err != nil {
		return nil, fmt.Errorf("faultsweep seed %d: baseline mount: %w", s.Seed, err)
	}
	want, err := walkFS(fs)
	if err != nil {
		return nil, fmt.Errorf("faultsweep seed %d: baseline walk: %w", s.Seed, err)
	}
	paths := make([]string, 0, len(want))
	for p := range want {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	// Dependency tracing: for each path, the set of blocks a cold mount
	// reads to resolve and fully read it. A fault outside deps[p] must
	// not affect p. The mount-only read set bounds which faults may fail
	// the mount itself.
	traceReads := func(visit func(*core.FS) error) (map[int64]bool, error) {
		sink := newReadSink()
		o := *cfg.Opts
		o.Tracer = obs.New(sink)
		td := disk.FromSnapshot(snap)
		tfs, err := core.Mount(td, o)
		if err != nil {
			return nil, err
		}
		if visit != nil {
			if err := visit(tfs); err != nil {
				return nil, err
			}
		}
		return sink.snapshot(), nil
	}
	mountDeps, err := traceReads(nil)
	if err != nil {
		return nil, fmt.Errorf("faultsweep seed %d: mount trace: %w", s.Seed, err)
	}
	deps := make(map[string]map[int64]bool, len(paths))
	for _, p := range paths {
		p := p
		deps[p], err = traceReads(func(tfs *core.FS) error {
			if want[p].dir {
				if _, err := tfs.Stat(p); err != nil {
					return err
				}
				_, err := tfs.ReadDir(p)
				return err
			}
			_, err := tfs.ReadFile(p)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("faultsweep seed %d: trace %s: %w", s.Seed, p, err)
		}
	}

	// The read sites: every block any traced walk touched.
	siteSet := make(map[int64]bool, len(mountDeps))
	for a := range mountDeps {
		siteSet[a] = true
	}
	for _, dp := range deps {
		for a := range dp {
			siteSet[a] = true
		}
	}
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
	res.Sites = len(sites)

	runOne := func(site int64, kind disk.FaultKind) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("PANIC: %v", r)
			}
		}()
		fd := disk.FromSnapshot(snap)
		if err := fd.InjectFault(disk.Fault{Kind: kind, Addr: site, Seed: site*2654435761 + int64(kind)}); err != nil {
			return fmt.Errorf("inject: %w", err)
		}
		ffs, merr := core.Mount(fd, *cfg.Opts)
		if merr != nil {
			if !typedFaultErr(merr) {
				return fmt.Errorf("mount failed with untyped error: %w", merr)
			}
			if !mountDeps[site] {
				return fmt.Errorf("mount failed though the site is not in the mount read set: %w", merr)
			}
			res.MountFailed++
			return nil
		}
		if ffs.Degraded() {
			res.Degraded++
		}
		for _, p := range paths {
			affected := deps[p][site]
			check := func(opErr error) error {
				if opErr == nil {
					return nil
				}
				if !typedFaultErr(opErr) {
					return fmt.Errorf("%s: untyped error: %w", p, opErr)
				}
				if !affected {
					return fmt.Errorf("%s: unaffected path failed: %w", p, opErr)
				}
				res.TypedErrors++
				return nil
			}
			if want[p].dir {
				_, serr := ffs.Stat(p)
				if serr == nil {
					_, serr = ffs.ReadDir(p)
				}
				if err := check(serr); err != nil {
					return err
				}
				continue
			}
			got, rerr := ffs.ReadFile(p)
			if rerr != nil {
				if err := check(rerr); err != nil {
					return err
				}
				continue
			}
			if !bytes.Equal(got, want[p].data) {
				return fmt.Errorf("%s: silent corruption: got %d bytes not matching the expected %d", p, len(got), len(want[p].data))
			}
		}
		return nil
	}

	for _, site := range sites {
		for _, kind := range []disk.FaultKind{disk.FaultReadError, disk.FaultCorrupt} {
			res.Runs++
			if err := runOne(site, kind); err != nil {
				return res, fmt.Errorf("faultsweep seed %d: site %d kind %d: %w", s.Seed, site, kind, err)
			}
		}
	}
	return res, nil
}
