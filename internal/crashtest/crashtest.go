// Package crashtest systematically explores mid-workload power cuts and
// verifies that checkpoint + roll-forward recovery (Section 4 of the LFS
// paper) restores a consistent file system from every one of them.
//
// The harness runs a deterministic random workload (core.Script) once
// while recording the device's cumulative persisted-block count after
// every operation. It then replays the identical workload against
// independent clones of the starting image, arming the simulated disk to
// cut power after k persisted blocks — for every write boundary k when
// the workload is small, or a stratified sample (plus every sync/
// checkpoint boundary, where torn checkpoints live) when it is not. Each
// crashed image must mount via roll-forward, pass the structural
// consistency sweep, and satisfy a durability-aware oracle: everything
// acknowledged by the last fully persisted Sync or Checkpoint survives,
// and anything later is either absent or a state the workload actually
// passed through (see oracle.go).
//
// The approach follows the crash-point enumeration style of
// CrashMonkey/ACE (OSDI 2018) adapted to a log-structured device: write
// boundaries are the only places a fail-stop power cut can land, and the
// simulated disk already tears multi-block writes at the boundary.
package crashtest

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/disk"
)

// Config sizes the harness. The zero value is completed with defaults
// matching the core package's test geometry: an 8192-block (32 MB) disk
// with 128 KB segments.
type Config struct {
	// DiskBlocks is the simulated device capacity (default 8192).
	DiskBlocks int64
	// Opts are the file system options used for every format, mount and
	// replay. The zero value gets small-disk test defaults.
	Opts *core.Options
	// MaxPoints caps crash points per workload; workloads with at most
	// MaxPoints write boundaries are explored exhaustively, larger ones
	// are sampled (default 16). Negative means always exhaustive.
	MaxPoints int
	// MaxFaultSites caps the read sites FaultSweep injects faults at;
	// 0 explores every site, larger site sets are sampled evenly.
	MaxFaultSites int
	// ExtraFaultSites are addresses FaultSweepNVReplay injects faults at
	// whether or not the traced recovery read them.
	ExtraFaultSites []int64
	// NVBytes sizes the NVRAM used by the NVSyncAbsorb harness paths
	// (RecordNV and friends); default 16384, small enough that modest
	// workloads exercise the absorb→backpressure-flush transition.
	NVBytes int64
}

func (c Config) withDefaults() Config {
	if c.DiskBlocks == 0 {
		c.DiskBlocks = 8192
	}
	if c.Opts == nil {
		c.Opts = &core.Options{
			SegmentBlocks:  32,
			MaxInodes:      2048,
			CleanLowWater:  4,
			CleanHighWater: 8,
			CleanBatch:     4,
		}
	}
	if c.MaxPoints == 0 {
		c.MaxPoints = 16
	}
	if c.NVBytes == 0 {
		c.NVBytes = 16384
	}
	return c
}

// Workload is one recorded workload, ready for crash-point replay.
type Workload struct {
	Script core.Script
	Ops    []core.Op

	cfg  Config
	snap *disk.Snapshot // formatted, checkpointed starting image
	cum  []int64        // persisted blocks after each op (post-mount relative)
	hist *history

	// nvAbsorb marks a workload recorded by RecordNV: replays run with
	// NVSyncAbsorb and a fresh NVRAM per run; nvNoGC selects the
	// serialized (NoGroupCommit) variant of the mode.
	nvAbsorb bool
	nvNoGC   bool
}

// Record formats a starting image, replays the script once against a
// clone of it, and records the persisted-block count at every operation
// boundary. The recording run itself must finish with the file system
// equal to the model and structurally consistent — a failure here is a
// plain (crash-free) bug, reported before any crash-point work starts.
func Record(s core.Script, cfg Config) (*Workload, error) {
	cfg = cfg.withDefaults()
	return record(s, cfg, *cfg.Opts)
}

// RecordNV records the workload in NVSyncAbsorb mode: every mutating
// operation appends an NVRAM redo record before its epoch closes, Sync
// is absorbed by the NVRAM, and (unless noGroupCommit) the committer
// goroutine flushes the disk asynchronously. The recording's per-op
// block counts are only used to enumerate crash points — with the async
// committer the replayed write sequence is not block-identical to the
// recording, so RunPointNV derives its durable floors from the replay
// itself.
func RecordNV(s core.Script, cfg Config, noGroupCommit bool) (*Workload, error) {
	cfg = cfg.withDefaults()
	opts := *cfg.Opts
	opts.NVSyncAbsorb = true
	opts.NVRAM = core.NewNVRAM(cfg.NVBytes)
	opts.NoGroupCommit = noGroupCommit
	w, err := record(s, cfg, opts)
	if err != nil {
		return nil, err
	}
	w.nvAbsorb = true
	w.nvNoGC = noGroupCommit
	return w, nil
}

// record is the shared recording pass: format a starting image, replay
// the script once against a clone under opts, record cumulative
// persisted blocks per op, and insist the crash-free run matches the
// model before any crash-point work starts.
func record(s core.Script, cfg Config, opts core.Options) (*Workload, error) {
	d0 := disk.MustNew(disk.DefaultGeometry(cfg.DiskBlocks))
	fs, err := core.Format(d0, *cfg.Opts)
	if err != nil {
		return nil, fmt.Errorf("crashtest: format: %w", err)
	}
	if err := fs.Unmount(); err != nil {
		return nil, fmt.Errorf("crashtest: unmount after format: %w", err)
	}
	w := &Workload{Script: s, Ops: s.Ops(), cfg: cfg, snap: d0.Snapshot()}
	w.hist = buildHistory(w.Ops)

	d := disk.FromSnapshot(w.snap)
	fs, err = core.Mount(d, opts)
	if err != nil {
		return nil, fmt.Errorf("crashtest: record mount: %w", err)
	}
	base := d.Stats().BlocksWritten
	model := core.NewModel()
	w.cum = make([]int64, len(w.Ops))
	for i, op := range w.Ops {
		if err := core.ApplyOp(fs, op); err != nil {
			return nil, fmt.Errorf("crashtest: record op %d (%s): %w", i, op, err)
		}
		model.Apply(op)
		w.cum[i] = d.Stats().BlocksWritten - base
	}
	if err := model.Verify(fs); err != nil {
		return nil, fmt.Errorf("crashtest: record run diverged from model: %w", err)
	}
	rep, err := fs.Check()
	if err != nil {
		return nil, fmt.Errorf("crashtest: record check: %w", err)
	}
	if len(rep.Problems) > 0 {
		return nil, fmt.Errorf("crashtest: record run inconsistent: %s", rep.Problems[0])
	}
	// Join the committer/cleaner goroutines; the snapshot was taken
	// before this mount, so the unmount checkpoint is irrelevant to it.
	if err := fs.Unmount(); err != nil {
		return nil, fmt.Errorf("crashtest: record unmount: %w", err)
	}
	return w, nil
}

// Total returns how many blocks the workload persists end to end; the
// crash-point space is [0, Total).
func (w *Workload) Total() int64 {
	if len(w.cum) == 0 {
		return 0
	}
	return w.cum[len(w.cum)-1]
}

// Points enumerates the crash points to explore: every write boundary
// when the workload persists at most cfg.MaxPoints blocks, otherwise an
// evenly spaced sample of MaxPoints boundaries plus the boundaries just
// before and at each Sync/Checkpoint completion (the torn-checkpoint
// region, which stratified sampling alone would usually miss).
func (w *Workload) Points() []int64 {
	total := w.Total()
	if total == 0 {
		return nil
	}
	max := w.cfg.MaxPoints
	if max < 0 || total <= int64(max) {
		out := make([]int64, total)
		for k := range out {
			out[k] = int64(k)
		}
		return out
	}
	set := make(map[int64]bool)
	for j := 0; j < max; j++ {
		set[int64(j)*total/int64(max)] = true
	}
	for i, op := range w.Ops {
		if op.Kind != core.OpSync && op.Kind != core.OpCheckpoint {
			continue
		}
		for _, k := range []int64{w.cum[i] - 1, w.cum[i]} {
			if k >= 0 && k < total {
				set[k] = true
			}
		}
	}
	out := make([]int64, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// crashIndex returns the index of the operation during which a power cut
// after k persisted blocks lands: the first operation whose cumulative
// write count exceeds k.
func (w *Workload) crashIndex(k int64) int {
	for i, c := range w.cum {
		if c > k {
			return i
		}
	}
	return len(w.Ops)
}

// floorIndex returns the index of the last Sync/Checkpoint operation
// that fully persisted before the power cut (-1 when none did: the
// durable floor is then the freshly formatted image).
func (w *Workload) floorIndex(k int64) int {
	floor := -1
	for i, op := range w.Ops {
		if w.cum[i] > k {
			break
		}
		if op.Kind == core.OpSync || op.Kind == core.OpCheckpoint {
			floor = i
		}
	}
	return floor
}

// RunPoint replays the workload against a fresh clone of the starting
// image with power cut after k persisted blocks, then mounts the crashed
// image via roll-forward and verifies it: structural consistency plus
// the durability oracle. It returns nil when recovery is correct.
func (w *Workload) RunPoint(k int64) error {
	if k < 0 || k >= w.Total() {
		return fmt.Errorf("crashtest: crash point %d outside [0,%d)", k, w.Total())
	}
	d := disk.FromSnapshot(w.snap)
	fs, err := core.Mount(d, *w.cfg.Opts)
	if err != nil {
		return fmt.Errorf("crashtest: k=%d: pre-crash mount: %w", k, err)
	}
	d.FailAfterWrites(k)
	crashed := -1
	for i, op := range w.Ops {
		if err := core.ApplyOp(fs, op); err != nil {
			if !d.Crashed() {
				return fmt.Errorf("crashtest: k=%d: op %d (%s) failed without a crash: %w", k, i, op, err)
			}
			crashed = i
			break
		}
	}
	if crashed == -1 {
		return fmt.Errorf("crashtest: k=%d < total=%d but the replay never crashed (nondeterministic replay?)", k, w.Total())
	}
	if want := w.crashIndex(k); crashed != want {
		return fmt.Errorf("crashtest: k=%d: crashed during op %d, recording says op %d (nondeterministic replay)", k, crashed, want)
	}

	d.Reopen()
	fs2, err := core.Mount(d, *w.cfg.Opts)
	if err != nil {
		return fmt.Errorf("crashtest: k=%d (crash in op %d, %s): recovery mount: %w", k, crashed, w.Ops[crashed], err)
	}
	rep, err := fs2.Check()
	if err != nil {
		return fmt.Errorf("crashtest: k=%d: post-recovery check: %w", k, err)
	}
	if len(rep.Problems) > 0 {
		return fmt.Errorf("crashtest: k=%d (crash in op %d, %s): recovered image inconsistent: %s",
			k, crashed, w.Ops[crashed], rep.Problems[0])
	}
	floor := w.floorIndex(k)
	if err := w.hist.check(fs2, floor, crashed); err != nil {
		return fmt.Errorf("crashtest: k=%d (crash in op %d, %s; floor op %d): %w",
			k, crashed, w.Ops[crashed], floor, err)
	}
	return nil
}

// RunPointBG replays the workload with the background cleaner enabled
// (Options.BackgroundClean) and power cut after k persisted blocks.
// Background cleaning runs in a goroutine, so the write sequence is not
// block-for-block identical to the inline recording: the crash lands at
// a runtime-discovered operation (possibly inside the cleaner's own
// writes, possibly nowhere if the replay persists fewer blocks than the
// recording did by point k). The durable floor is therefore derived
// from the replay itself — the last Sync/Checkpoint that returned
// success before the cut — rather than from the recording. Recovery
// must still produce a structurally consistent image satisfying the
// same durability oracle: the background cleaner may move live blocks
// and checkpoint concurrently with the workload, but it must never
// change what a crash can lose.
func (w *Workload) RunPointBG(k int64) error {
	if k < 0 || k >= w.Total() {
		return fmt.Errorf("crashtest: crash point %d outside [0,%d)", k, w.Total())
	}
	opts := *w.cfg.Opts
	opts.BackgroundClean = true
	d := disk.FromSnapshot(w.snap)
	fs, err := core.Mount(d, opts)
	if err != nil {
		return fmt.Errorf("crashtest: bg k=%d: pre-crash mount: %w", k, err)
	}
	d.FailAfterWrites(k)
	crashed := len(w.Ops) - 1
	floor := -1
	for i, op := range w.Ops {
		if err := core.ApplyOp(fs, op); err != nil {
			if !d.Crashed() {
				fs.Unmount()
				return fmt.Errorf("crashtest: bg k=%d: op %d (%s) failed without a crash: %w", k, i, op, err)
			}
			crashed = i
			break
		}
		if op.Kind == core.OpSync || op.Kind == core.OpCheckpoint {
			floor = i
		}
	}
	// Join the cleaner goroutine and release the image. On a crashed
	// disk the final flush or checkpoint fails; that is the crash we
	// asked for, so the error is ignored.
	_ = fs.Unmount()

	d.Reopen()
	fs2, err := core.Mount(d, opts)
	if err != nil {
		return fmt.Errorf("crashtest: bg k=%d (crash in op %d, %s): recovery mount: %w", k, crashed, w.Ops[crashed], err)
	}
	defer fs2.Unmount()
	rep, err := fs2.Check()
	if err != nil {
		return fmt.Errorf("crashtest: bg k=%d: post-recovery check: %w", k, err)
	}
	if len(rep.Problems) > 0 {
		return fmt.Errorf("crashtest: bg k=%d (crash in op %d, %s): recovered image inconsistent: %s",
			k, crashed, w.Ops[crashed], rep.Problems[0])
	}
	if err := w.hist.check(fs2, floor, crashed); err != nil {
		return fmt.Errorf("crashtest: bg k=%d (crash in op %d, %s; floor op %d): %w",
			k, crashed, w.Ops[crashed], floor, err)
	}
	return nil
}

// PointsNV enumerates crash points for the NVRAM-absorbed durability
// model. With NVSyncAbsorb every operation completion is an NVRAM
// commit, so the boundaries just before and at each operation's end —
// not only Sync/Checkpoint ends — are durability edges the oracle must
// hold at: they are exactly where "durable via NVRAM, absent from the
// disk log" states live. Small workloads are exhaustive like Points;
// larger ones take the stratified sample plus every NVRAM-commit
// boundary (op ends are sampled evenly past 64 ops to bound the sweep).
func (w *Workload) PointsNV() []int64 {
	total := w.Total()
	if total == 0 {
		return nil
	}
	maxPts := w.cfg.MaxPoints
	if maxPts < 0 || total <= int64(maxPts) {
		out := make([]int64, total)
		for k := range out {
			out[k] = int64(k)
		}
		return out
	}
	set := make(map[int64]bool)
	for j := 0; j < maxPts; j++ {
		set[int64(j)*total/int64(maxPts)] = true
	}
	stride := 1 + (len(w.Ops)-1)/64
	for i, op := range w.Ops {
		commit := op.Kind == core.OpSync || op.Kind == core.OpCheckpoint || i%stride == 0
		if !commit {
			continue
		}
		for _, k := range []int64{w.cum[i] - 1, w.cum[i]} {
			if k >= 0 && k < total {
				set[k] = true
			}
		}
	}
	out := make([]int64, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// RunPointNV replays an NVSyncAbsorb workload (from RecordNV) with power
// cut after k persisted blocks, then exercises one of the two recovery
// arms:
//
//   - nvSurvives=true: the crashed image is mounted with the same NVRAM,
//     which replays the redo records. The durable floor is the last
//     operation that completed before the cut — in absorb mode every
//     completed operation is NVRAM-durable, whether or not the disk log
//     ever saw it.
//   - nvSurvives=false: the NVRAM contents are lost with the power (a
//     fail-stop board, or a battery that did not hold). Recovery falls
//     back to checkpoint + roll-forward alone, and the durable floor is
//     the disk epoch: the last operation after which the replay observed
//     flushedSeq covering stageSeq (Durability). Absorbed-but-unflushed
//     operations land inside the oracle window, where losing them is
//     acceptable and resurrecting impossible states is not.
//
// The async committer makes the replayed write sequence differ from the
// recording, so both floors are derived from the replay itself (the
// RunPointBG pattern) and a replay that never crashes — it wrote fewer
// blocks than the recording by point k — degenerates to an exact check
// of the final state.
func (w *Workload) RunPointNV(k int64, nvSurvives bool) error {
	if !w.nvAbsorb {
		return fmt.Errorf("crashtest: RunPointNV on a workload not recorded with RecordNV")
	}
	if k < 0 || k >= w.Total() {
		return fmt.Errorf("crashtest: crash point %d outside [0,%d)", k, w.Total())
	}
	arm := "nvram-survives"
	if !nvSurvives {
		arm = "nvram-lost"
	}
	opts := *w.cfg.Opts
	opts.NVSyncAbsorb = true
	opts.NVRAM = core.NewNVRAM(w.cfg.NVBytes)
	opts.NoGroupCommit = w.nvNoGC
	d := disk.FromSnapshot(w.snap)
	fs, err := core.Mount(d, opts)
	if err != nil {
		return fmt.Errorf("crashtest: %s k=%d: pre-crash mount: %w", arm, k, err)
	}
	d.FailAfterWrites(k)
	completed := -1 // last op that returned success
	crashed := -1   // op the cut landed in (-1: after all ops)
	diskFloor := -1 // last op the disk epoch was observed to cover
	for i, op := range w.Ops {
		if err := core.ApplyOp(fs, op); err != nil {
			if !d.Crashed() {
				fs.Unmount()
				return fmt.Errorf("crashtest: %s k=%d: op %d (%s) failed without a crash: %w", arm, k, i, op, err)
			}
			crashed = i
			break
		}
		completed = i
		if staged, _, diskSeq := fs.Durability(); diskSeq >= staged {
			diskFloor = i
		}
	}
	if crashed == -1 {
		// The cut lands after every op (in the unmount below, or not at
		// all when this replay wrote fewer blocks than the recording).
		crashed = completed
	}
	// Join the committer goroutine and release the image. On a crashed
	// disk the final flush or checkpoint fails; that is the crash we
	// asked for, so the error is ignored.
	_ = fs.Unmount()

	d.Reopen()
	ropts := opts
	if !nvSurvives {
		ropts.NVRAM = nil
		ropts.NVSyncAbsorb = false
	}
	fs2, err := core.Mount(d, ropts)
	if err != nil {
		return fmt.Errorf("crashtest: %s k=%d (crash in op %d, %s): recovery mount: %w",
			arm, k, crashed, w.Ops[crashed], err)
	}
	defer fs2.Unmount()
	rep, err := fs2.Check()
	if err != nil {
		return fmt.Errorf("crashtest: %s k=%d: post-recovery check: %w", arm, k, err)
	}
	if len(rep.Problems) > 0 {
		return fmt.Errorf("crashtest: %s k=%d (crash in op %d, %s): recovered image inconsistent: %s",
			arm, k, crashed, w.Ops[crashed], rep.Problems[0])
	}
	floor := diskFloor
	if nvSurvives {
		floor = completed
	}
	if err := w.hist.check(fs2, floor, crashed); err != nil {
		return fmt.Errorf("crashtest: %s k=%d (crash in op %d, %s; floor op %d): %w",
			arm, k, crashed, w.Ops[crashed], floor, err)
	}
	return nil
}

// SweepNV records the script in NVSyncAbsorb mode and explores every
// enumerated crash point through both recovery arms (NVRAM survives /
// NVRAM lost) for both group-commit modes. It returns how many crash
// runs were executed and the first failure, wrapped with the seed and
// arm for reproduction.
func SweepNV(s core.Script, cfg Config) (int, error) {
	runs := 0
	for _, noGC := range []bool{false, true} {
		w, err := RecordNV(s, cfg, noGC)
		if err != nil {
			return runs, fmt.Errorf("seed %d (nogc=%v): %w", s.Seed, noGC, err)
		}
		for _, k := range w.PointsNV() {
			for _, survives := range []bool{true, false} {
				runs++
				if err := w.RunPointNV(k, survives); err != nil {
					return runs, fmt.Errorf("seed %d (nogc=%v): %w", s.Seed, noGC, err)
				}
			}
		}
	}
	return runs, nil
}

// Sweep records the script and runs every enumerated crash point,
// returning how many points were explored and the first failure (if any)
// wrapped with the script's seed for reproduction.
func Sweep(s core.Script, cfg Config) (int, error) {
	w, err := Record(s, cfg)
	if err != nil {
		return 0, fmt.Errorf("seed %d: %w", s.Seed, err)
	}
	points := w.Points()
	for _, k := range points {
		if err := w.RunPoint(k); err != nil {
			return len(points), fmt.Errorf("seed %d: %w", s.Seed, err)
		}
	}
	return len(points), nil
}
