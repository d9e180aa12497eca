package crashtest

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// The write-side media-fault sweep. Where FaultSweep explores every
// place a media fault can land on the read path, this harness explores
// every place one can land on the write path: it replays a workload once
// with a tracer attached and records every block address the device was
// asked to write — log flushes, checkpoint regions (which carry the
// quarantine list), cleaner copies, and the unmount checkpoint — then
// replays the identical workload once per (site, fault kind) against a
// clone of the starting image with one write fault armed. The contract
// on every run:
//
//   - no panic, ever;
//   - every operation still succeeds: retry absorbs transient faults and
//     relocation (abandon the poisoned segment, quarantine it, replay
//     the staged batch into a fresh segment) absorbs permanent ones, so
//     the op-level caller never sees the fault;
//   - a single faulted segment never degrades the file system while
//     clean segments remain (checkpoint-region faults fall back to the
//     alternate region);
//   - the final state is byte-identical to the fault-free baseline, both
//     live and after an unmount/remount cycle — relocated batches must
//     lose nothing;
//   - crash arms: a power cut racing the fault (including mid-
//     relocation) still recovers to a consistent image satisfying the
//     durability oracle, because a relocating flush checkpoints before
//     acknowledging.

// writeSink collects the block addresses of device write requests,
// including the attempted prefix of torn or faulted transfers.
type writeSink struct {
	mu    sync.Mutex
	addrs map[int64]bool
}

func newWriteSink() *writeSink { return &writeSink{addrs: map[int64]bool{}} }

func (s *writeSink) Emit(e obs.Event) {
	if e.Kind != obs.KindDiskIO || e.Disk == nil || e.Disk.Op != "write" {
		return
	}
	s.mu.Lock()
	for i := 0; i < e.Disk.Blocks; i++ {
		s.addrs[e.Disk.Addr+int64(i)] = true
	}
	s.mu.Unlock()
}

func (s *writeSink) sorted() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int64, 0, len(s.addrs))
	for a := range s.addrs {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// WriteFaultSweepResult summarizes a completed write-fault sweep.
type WriteFaultSweepResult struct {
	Sites       int   // write sites faulted (all checkpoint-region sites + sampled log sites)
	Runs        int   // faulted workload replays (two fault kinds per site)
	Relocations int64 // segment/region relocations observed across all runs
	Retries     int64 // bounded media-write retries observed across all runs
	CrashRuns   int   // crash-during-relocation arms executed
	NVRuns      int   // NVRAM-absorbed-mode arms executed
}

// defaultWriteFaultSites caps the sampled log-area write sites when
// Config.MaxFaultSites is zero. Unlike the read sweep — whose site set
// is bounded by the verification walk's dependency footprint — the
// write-site set is every block the workload ever wrote, so sweeping it
// exhaustively by default would dominate test time. Checkpoint-region
// sites are never sampled away; a negative MaxFaultSites sweeps every
// site.
const defaultWriteFaultSites = 32

// sampleSites picks max evenly spaced sites (all of them when the set
// already fits, or when max is negative).
func sampleSites(in []int64, max int) []int64 {
	if max < 0 || len(in) <= max {
		return in
	}
	out := make([]int64, 0, max)
	for j := 0; j < max; j++ {
		out = append(out, in[j*len(in)/max])
	}
	return out
}

// diffWalk compares a faulted run's final state against the fault-free
// baseline, naming the first divergence.
func diffWalk(got, want map[string]recState) error {
	for p, w := range want {
		g, ok := got[p]
		if !ok {
			return fmt.Errorf("%s: missing from the faulted image", p)
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
			return fmt.Errorf("%s: present in the faulted image but not the baseline", p)
		}
	}
	return nil
}

// FaultSweepWrites runs the write-side media-fault sweep for a workload
// script. It returns the sweep summary and the first contract violation
// found (nil when every run upheld it), wrapped with the script's seed.
func FaultSweepWrites(s core.Script, cfg Config) (*WriteFaultSweepResult, error) {
	cfg = cfg.withDefaults()
	res := &WriteFaultSweepResult{}

	// Record the workload: starting image, op list, durability history.
	// The recording run is also the harness's crash-free sanity check.
	w, err := Record(s, cfg)
	if err != nil {
		return nil, fmt.Errorf("writefaultsweep seed %d: %w", s.Seed, err)
	}

	// Trace the write sites: one replay with a tracer attached, capturing
	// every device write from the mount through the unmount checkpoint.
	// The same run's final walk is the fault-free baseline.
	sink := newWriteSink()
	topts := *cfg.Opts
	topts.Tracer = obs.New(sink)
	td := disk.FromSnapshot(w.snap)
	tfs, err := core.Mount(td, topts)
	if err != nil {
		return nil, fmt.Errorf("writefaultsweep seed %d: trace mount: %w", s.Seed, err)
	}
	for i, op := range w.Ops {
		if err := core.ApplyOp(tfs, op); err != nil {
			return nil, fmt.Errorf("writefaultsweep seed %d: trace op %d (%s): %w", s.Seed, i, op, err)
		}
	}
	want, err := walkFS(tfs)
	if err != nil {
		return nil, fmt.Errorf("writefaultsweep seed %d: baseline walk: %w", s.Seed, err)
	}
	if err := tfs.Unmount(); err != nil {
		return nil, fmt.Errorf("writefaultsweep seed %d: trace unmount: %w", s.Seed, err)
	}

	// Split the sites at the segment base: checkpoint-region writes (the
	// fixed area) are few and load-bearing — quarantine persistence rides
	// them — so they are all kept; the log area is sampled.
	sbBuf, err := td.ReadBlock(0)
	if err != nil {
		return nil, fmt.Errorf("writefaultsweep seed %d: superblock: %w", s.Seed, err)
	}
	sb, err := layout.DecodeSuperblock(sbBuf)
	if err != nil {
		return nil, fmt.Errorf("writefaultsweep seed %d: superblock: %w", s.Seed, err)
	}
	var cpSites, logSites []int64
	for _, a := range sink.sorted() {
		if a < sb.SegmentBase {
			cpSites = append(cpSites, a)
		} else {
			logSites = append(logSites, a)
		}
	}
	maxSites := cfg.MaxFaultSites
	if maxSites == 0 {
		maxSites = defaultWriteFaultSites
	}
	sites := append(append([]int64{}, cpSites...), sampleSites(logSites, maxSites)...)
	res.Sites = len(sites)

	// runOne replays the workload against a clone with one write fault
	// armed and holds the full contract: ops succeed, no degrade, clean
	// check, baseline-identical walk — live and again after a remount
	// (the fault is still armed then: bad sectors survive reboots).
	runOne := func(f disk.Fault) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("PANIC: %v", r)
			}
		}()
		fd := disk.FromSnapshot(w.snap)
		if err := fd.InjectFault(f); err != nil {
			return fmt.Errorf("inject: %w", err)
		}
		o := *cfg.Opts
		o.Tracer = obs.New(nil)
		ffs, merr := core.Mount(fd, o)
		if merr != nil {
			return fmt.Errorf("mount under a write fault must succeed: %w", merr)
		}
		for i, op := range w.Ops {
			if oerr := core.ApplyOp(ffs, op); oerr != nil {
				return fmt.Errorf("op %d (%s) must be absorbed by retry/relocation: %w", i, op, oerr)
			}
		}
		if ffs.Degraded() {
			return fmt.Errorf("degraded with clean segments remaining: %s", ffs.DegradedReason())
		}
		rep, cerr := ffs.Check()
		if cerr != nil {
			return fmt.Errorf("check: %w", cerr)
		}
		if len(rep.Problems) > 0 {
			return fmt.Errorf("inconsistent after absorbed fault: %s", rep.Problems[0])
		}
		got, werr := walkFS(ffs)
		if werr != nil {
			return fmt.Errorf("walk: %w", werr)
		}
		if derr := diffWalk(got, want); derr != nil {
			return fmt.Errorf("relocated state diverged: %w", derr)
		}
		m := ffs.Metrics()
		res.Relocations += m.Counter(obs.CtrMediaWriteRelocations)
		res.Retries += m.Counter(obs.CtrMediaWriteRetries)
		if uerr := ffs.Unmount(); uerr != nil {
			return fmt.Errorf("unmount under a write fault: %w", uerr)
		}
		rfs, rerr := core.Mount(fd, o)
		if rerr != nil {
			return fmt.Errorf("remount: %w", rerr)
		}
		got, werr = walkFS(rfs)
		if werr != nil {
			return fmt.Errorf("remount walk: %w", werr)
		}
		if derr := diffWalk(got, want); derr != nil {
			return fmt.Errorf("remounted state diverged: %w", derr)
		}
		if uerr := rfs.Unmount(); uerr != nil {
			return fmt.Errorf("remount unmount: %w", uerr)
		}
		return nil
	}

	kinds := []disk.Fault{
		{Kind: disk.FaultWriteError},               // permanent: must relocate
		{Kind: disk.FaultWriteError, Transient: 2}, // clears inside the retry budget
	}
	for _, site := range sites {
		for _, f := range kinds {
			f.Addr = site
			f.Seed = site*2654435761 + int64(f.Transient)
			res.Runs++
			if err := runOne(f); err != nil {
				return res, fmt.Errorf("writefaultsweep seed %d: site %d transient %d: %w", s.Seed, site, f.Transient, err)
			}
		}
	}

	// Crash arms: a permanent write fault racing a power cut, so cuts
	// land before, during, and after the relocation machinery runs —
	// including mid-relocation, where the deferred acknowledgement (the
	// checkpoint-before-acknowledge invariant) is what the oracle
	// verifies. Sites come from the log area only: a cut tearing the one
	// surviving checkpoint region after the other was retired may
	// legitimately leave no checkpoint at all, which is a different
	// failure domain than this sweep's.
	runCrash := func(site, k int64) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("PANIC: %v", r)
			}
		}()
		fd := disk.FromSnapshot(w.snap)
		if err := fd.InjectFault(disk.Fault{Kind: disk.FaultWriteError, Addr: site, Seed: site}); err != nil {
			return fmt.Errorf("inject: %w", err)
		}
		ffs, merr := core.Mount(fd, *cfg.Opts)
		if merr != nil {
			return fmt.Errorf("pre-crash mount: %w", merr)
		}
		fd.FailAfterWrites(k)
		// Retries and relocation writes make the replay's write sequence
		// diverge from the recording, so the durable floor and crash op
		// are derived from the replay itself (the RunPointBG pattern).
		crashed := len(w.Ops) - 1
		floor := -1
		for i, op := range w.Ops {
			if oerr := core.ApplyOp(ffs, op); oerr != nil {
				if !fd.Crashed() {
					ffs.Unmount()
					return fmt.Errorf("op %d (%s) failed without a crash: %w", i, op, oerr)
				}
				crashed = i
				break
			}
			if op.Kind == core.OpSync || op.Kind == core.OpCheckpoint {
				floor = i
			}
		}
		_ = ffs.Unmount()

		fd.Reopen() // the power cut heals; the media fault does not
		fs2, rerr := core.Mount(fd, *cfg.Opts)
		if rerr != nil {
			return fmt.Errorf("recovery mount (crash in op %d, %s): %w", crashed, w.Ops[crashed], rerr)
		}
		defer fs2.Unmount()
		rep, cerr := fs2.Check()
		if cerr != nil {
			return fmt.Errorf("post-recovery check: %w", cerr)
		}
		if len(rep.Problems) > 0 {
			return fmt.Errorf("recovered image inconsistent (crash in op %d, %s): %s", crashed, w.Ops[crashed], rep.Problems[0])
		}
		if oerr := w.hist.check(fs2, floor, crashed); oerr != nil {
			return fmt.Errorf("oracle (crash in op %d, %s; floor op %d): %w", crashed, w.Ops[crashed], floor, oerr)
		}
		return nil
	}
	total := w.Total()
	for _, site := range sampleSites(logSites, 4) {
		for _, k := range []int64{total / 4, total / 2, 3 * total / 4} {
			if k <= 0 || k >= total {
				continue
			}
			res.CrashRuns++
			if err := runCrash(site, k); err != nil {
				return res, fmt.Errorf("writefaultsweep seed %d: crash arm site %d k %d: %w", s.Seed, site, k, err)
			}
		}
	}

	// NVRAM-absorbed arm: with NVSyncAbsorb the log flush is the
	// committer's business and its write addresses differ from the plain
	// trace, so this mode gets its own trace, baseline, and (sampled)
	// faulted replays. Every op must still succeed — an absorbed Sync's
	// durability promise cannot be broken by a media fault the flush
	// machinery relocated around.
	nvOpts := func() core.Options {
		o := *cfg.Opts
		o.NVSyncAbsorb = true
		o.NoGroupCommit = true
		o.NVRAM = core.NewNVRAM(cfg.NVBytes)
		return o
	}
	nvSink := newWriteSink()
	no := nvOpts()
	no.Tracer = obs.New(nvSink)
	nd := disk.FromSnapshot(w.snap)
	nfs, err := core.Mount(nd, no)
	if err != nil {
		return res, fmt.Errorf("writefaultsweep seed %d: nv trace mount: %w", s.Seed, err)
	}
	for i, op := range w.Ops {
		if err := core.ApplyOp(nfs, op); err != nil {
			return res, fmt.Errorf("writefaultsweep seed %d: nv trace op %d (%s): %w", s.Seed, i, op, err)
		}
	}
	wantNV, err := walkFS(nfs)
	if err != nil {
		return res, fmt.Errorf("writefaultsweep seed %d: nv baseline walk: %w", s.Seed, err)
	}
	if err := nfs.Unmount(); err != nil {
		return res, fmt.Errorf("writefaultsweep seed %d: nv trace unmount: %w", s.Seed, err)
	}
	runNV := func(site int64) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("PANIC: %v", r)
			}
		}()
		fd := disk.FromSnapshot(w.snap)
		if err := fd.InjectFault(disk.Fault{Kind: disk.FaultWriteError, Addr: site, Seed: site}); err != nil {
			return fmt.Errorf("inject: %w", err)
		}
		ffs, merr := core.Mount(fd, nvOpts())
		if merr != nil {
			return fmt.Errorf("nv mount under a write fault: %w", merr)
		}
		for i, op := range w.Ops {
			if oerr := core.ApplyOp(ffs, op); oerr != nil {
				return fmt.Errorf("nv op %d (%s) must be absorbed: %w", i, op, oerr)
			}
		}
		if ffs.Degraded() {
			return fmt.Errorf("nv mode degraded with clean segments remaining: %s", ffs.DegradedReason())
		}
		got, werr := walkFS(ffs)
		if werr != nil {
			return fmt.Errorf("nv walk: %w", werr)
		}
		if derr := diffWalk(got, wantNV); derr != nil {
			return fmt.Errorf("nv state diverged: %w", derr)
		}
		rep, cerr := ffs.Check()
		if cerr != nil {
			return fmt.Errorf("nv check: %w", cerr)
		}
		if len(rep.Problems) > 0 {
			return fmt.Errorf("nv inconsistent: %s", rep.Problems[0])
		}
		if uerr := ffs.Unmount(); uerr != nil {
			return fmt.Errorf("nv unmount: %w", uerr)
		}
		return nil
	}
	for _, site := range sampleSites(nvSink.sorted(), 8) {
		res.NVRuns++
		if err := runNV(site); err != nil {
			return res, fmt.Errorf("writefaultsweep seed %d: nv arm site %d: %w", s.Seed, site, err)
		}
	}
	return res, nil
}
