package crashtest

import (
	"fmt"
	"slices"

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
// Config.MaxFaultSites is zero (see that field). Unlike the read sweep —
// whose site set is bounded by the verification walk's dependency
// footprint — the write-site set is every block the workload ever wrote,
// so sweeping it exhaustively by default would dominate test time.
const defaultWriteFaultSites = 32

// FaultSweepWrites runs the write-side media-fault sweep for a workload
// script. It returns the sweep summary and the first contract violation
// found (nil when every run upheld it), wrapped with the script's seed.
func FaultSweepWrites(s core.Script, cfg Config) (res *WriteFaultSweepResult, err error) {
	defer seedErr("writefaultsweep", s, &err)
	cfg = cfg.withDefaults()
	res = &WriteFaultSweepResult{}

	// Record the workload: starting image, op list, durability history.
	// The recording run is also the harness's crash-free sanity check.
	w, err := Record(s, cfg)
	if err != nil {
		return nil, err
	}

	// trace replays the workload fault-free under opts with a tracer
	// attached, capturing every device write from the mount through the
	// unmount checkpoint. The same run's final walk is the baseline.
	trace := func(opts core.Options) (sites []int64, want map[string]recState, err error) {
		sink := newSiteSink("write")
		opts.Tracer = obs.New(sink)
		want, _, err = absorbed(disk.FromSnapshot(w.snap), opts, w.Ops, nil)
		return sortedKeys(sink.sites()), want, err
	}
	traced, want, err := trace(*cfg.Opts)
	if err != nil {
		return nil, fmt.Errorf("trace run: %w", err)
	}

	// Split the sites at the segment base: checkpoint-region writes (the
	// fixed area) are few and load-bearing — quarantine persistence rides
	// them — so they are all kept; the log area is sampled.
	sbBuf, err := disk.FromSnapshot(w.snap).Peek(0)
	if err != nil {
		return nil, fmt.Errorf("superblock: %w", err)
	}
	sb, err := layout.DecodeSuperblock(sbBuf)
	if err != nil {
		return nil, fmt.Errorf("superblock: %w", err)
	}
	nCp, _ := slices.BinarySearch(traced, sb.SegmentBase)
	cpSites, logSites := traced[:nCp], traced[nCp:]
	maxSites := cfg.MaxFaultSites
	if maxSites == 0 {
		maxSites = defaultWriteFaultSites
	}
	sites := append(slices.Clone(cpSites), sampleSites(logSites, maxSites)...)
	res.Sites = len(sites)

	// Each faulted replay holds the full contract of absorbed — ops
	// succeed, no degrade, clean check, baseline-identical walk — live and
	// again after a remount (the fault is still armed then: bad sectors
	// survive reboots).
	kinds := []disk.Fault{
		{Kind: disk.FaultWriteError},               // permanent: must relocate
		{Kind: disk.FaultWriteError, Transient: 2}, // clears inside the retry budget
	}
	for _, site := range sites {
		for _, f := range kinds {
			f.Addr = site
			f.Seed = site*2654435761 + int64(f.Transient)
			res.Runs++
			err := guarded(func() error {
				fd, err := faulted(w.snap, f)
				if err != nil {
					return err
				}
				o := *cfg.Opts
				o.Tracer = obs.New(nil)
				_, m, err := absorbed(fd, o, w.Ops, want)
				if err != nil {
					return err
				}
				res.Relocations += m.Counter(obs.CtrMediaWriteRelocations)
				res.Retries += m.Counter(obs.CtrMediaWriteRetries)
				if _, _, err := absorbed(fd, o, nil, want); err != nil {
					return fmt.Errorf("remount: %w", err)
				}
				return nil
			})
			if err != nil {
				return res, fmt.Errorf("site %d transient %d: %w", site, f.Transient, err)
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
	// failure domain than this sweep's. Retries and relocation writes make
	// the replay's write sequence diverge from the recording, so the
	// window is the replay's own, with ArmBackground's floor: the last
	// Sync/Checkpoint that returned.
	total := w.Total()
	for _, site := range sampleSites(logSites, 4) {
		for _, k := range []int64{total / 4, total / 2, 3 * total / 4} {
			if k <= 0 || k >= total {
				continue
			}
			res.CrashRuns++
			err := guarded(func() error {
				fd, err := faulted(w.snap, disk.Fault{Kind: disk.FaultWriteError, Addr: site, Seed: site})
				if err != nil {
					return err
				}
				c, err := w.replay(fd, *cfg.Opts, k)
				if err != nil {
					return err
				}
				if err := w.recover(fd, *cfg.Opts, c.synced, c.crashed); err != nil {
					return fmt.Errorf("crash in op %d, %s; floor op %d: %w", c.crashed, w.Ops[c.crashed], c.synced, err)
				}
				return nil
			})
			if err != nil {
				return res, fmt.Errorf("crash arm site %d k %d: %w", site, k, err)
			}
		}
	}

	// NVRAM-absorbed arm: with NVSyncAbsorb the log flush is the
	// committer's business and its write addresses differ from the plain
	// trace, so this mode gets its own trace, baseline, and (sampled)
	// faulted replays. Every op must still succeed — an absorbed Sync's
	// durability promise cannot be broken by a media fault the flush
	// machinery relocated around.
	nvSites, wantNV, err := trace(nvOptions(cfg, true))
	if err != nil {
		return res, fmt.Errorf("nv trace run: %w", err)
	}
	for _, site := range sampleSites(nvSites, 8) {
		res.NVRuns++
		err := guarded(func() error {
			fd, err := faulted(w.snap, disk.Fault{Kind: disk.FaultWriteError, Addr: site, Seed: site})
			if err != nil {
				return err
			}
			_, _, err = absorbed(fd, nvOptions(cfg, true), w.Ops, wantNV)
			return err
		})
		if err != nil {
			return res, fmt.Errorf("nv arm site %d: %w", site, err)
		}
	}
	return res, nil
}
