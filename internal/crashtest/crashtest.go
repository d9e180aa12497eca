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
	// MaxFaultSites caps the sites a fault sweep injects faults at; larger
	// site sets are sampled evenly (sampleSites). For FaultSweep and
	// FaultSweepNVReplay, whose site set is bounded by what a verification
	// walk or a recovery mount reads, 0 (or negative) explores every site.
	// FaultSweepWrites' site set is every block the workload ever wrote:
	// there the cap applies to the log-area sites only (checkpoint-region
	// sites are never sampled away), 0 means defaultWriteFaultSites and
	// only a negative value sweeps every site.
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
// recording, so the NVRAM arms of RunPoint take their durable floors from
// the replay itself.
func RecordNV(s core.Script, cfg Config, noGroupCommit bool) (*Workload, error) {
	cfg = cfg.withDefaults()
	w, err := record(s, cfg, nvOptions(cfg, noGroupCommit))
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
	if err := checkClean(fs); err != nil {
		return nil, fmt.Errorf("crashtest: record run: %w", err)
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

// durable reports whether op's return acknowledges durability on disk.
func durable(op core.Op) bool {
	return op.Kind == core.OpSync || op.Kind == core.OpCheckpoint
}

// Points enumerates the crash points to explore: every write boundary
// when the workload persists at most cfg.MaxPoints blocks, otherwise an
// evenly spaced sample of MaxPoints boundaries plus the boundaries just
// before and at each durability edge (the torn-checkpoint region, which
// stratified sampling alone would usually miss). A durability edge is a
// Sync/Checkpoint completion; for a workload recorded with RecordNV every
// operation completion is an NVRAM commit, so op ends are edges too —
// exactly where "durable via NVRAM, absent from the disk log" states
// live (sampled evenly past 64 ops to bound the sweep).
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
	stride := 1 + (len(w.Ops)-1)/64
	for i, op := range w.Ops {
		if !durable(op) && !(w.nvAbsorb && i%stride == 0) {
			continue
		}
		for _, k := range []int64{w.cum[i] - 1, w.cum[i]} {
			if k >= 0 && k < total {
				set[k] = true
			}
		}
	}
	return sortedKeys(set)
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
		if durable(op) {
			floor = i
		}
	}
	return floor
}

// Arm selects how RunPoint replays the workload up to the power cut and
// how it recovers afterwards. The arms differ only in the replay's
// options, in which operation index the replay recorded is the oracle's
// durable floor, and in whether the recovery mount gets the NVRAM.
type Arm int

const (
	// ArmInline replays under the recording's own options, so the write
	// sequence is block-for-block the recording's: the op the cut lands
	// in and the last Sync/Checkpoint that returned (the floor) must both
	// match what the recording predicts, and a replay that never crashes
	// is an error. These are the harness's two determinism assertions.
	ArmInline Arm = iota
	// ArmBackground replays with Options.BackgroundClean. The cleaner
	// runs in a goroutine, so the write sequence is not the recording's:
	// the crash lands at a runtime-discovered operation (possibly inside
	// the cleaner's own writes, possibly nowhere if the replay persists
	// fewer blocks than the recording did by point k). The floor is the
	// last Sync/Checkpoint that returned before the cut. The background
	// cleaner may move live blocks and checkpoint concurrently with the
	// workload, but it must never change what a crash can lose.
	ArmBackground
	// ArmNVSurvives replays a RecordNV workload with NVSyncAbsorb and
	// mounts the crashed image with the same NVRAM, which replays the
	// redo records. The floor is the last operation that completed before
	// the cut — in absorb mode every completed operation is NVRAM-durable,
	// whether or not the disk log ever saw it.
	ArmNVSurvives
	// ArmNVLost is the same replay, but the NVRAM contents are lost with
	// the power (a fail-stop board, or a battery that did not hold).
	// Recovery falls back to checkpoint + roll-forward alone, and the
	// floor is the disk epoch: the last operation after which the replay
	// observed flushedSeq covering stageSeq (Durability). Absorbed-but-
	// unflushed operations land inside the oracle window, where losing
	// them is acceptable and resurrecting impossible states is not.
	ArmNVLost
)

func (a Arm) String() string {
	return [...]string{"inline", "background", "nvram-survives", "nvram-lost"}[a]
}

func (a Arm) nv() bool { return a == ArmNVSurvives || a == ArmNVLost }

// nvOptions returns cfg's options in NVSyncAbsorb mode over a fresh NVRAM.
func nvOptions(cfg Config, noGroupCommit bool) core.Options {
	opts := *cfg.Opts
	opts.NVSyncAbsorb = true
	opts.NVRAM = core.NewNVRAM(cfg.NVBytes)
	opts.NoGroupCommit = noGroupCommit
	return opts
}

// cut is what one replay observed, as operation indices (-1: none). In
// every arm but ArmInline the replayed write sequence differs from the
// recording's (a goroutine, retries or relocation writes move it), so the
// oracle's window is taken from these, never from the recording.
type cut struct {
	crashed   int // op the cut landed in; the last op when it landed after them all (in the unmount, or nowhere)
	completed int // last op that returned success
	synced    int // last Sync/Checkpoint that returned success
	onDisk    int // last op after which Durability showed the disk epoch covering every staged op
}

// replay mounts d under opts, arms a power cut after k persisted blocks
// and applies the workload until the cut lands. It is the only place the
// package arms a power cut. The final Unmount joins the committer and
// cleaner goroutines and releases the image; on a crashed disk its flush
// or checkpoint fails, and that is the crash that was asked for.
func (w *Workload) replay(d *disk.Disk, opts core.Options, k int64) (cut, error) {
	c := cut{crashed: len(w.Ops) - 1, completed: -1, synced: -1, onDisk: -1}
	fs, err := core.Mount(d, opts)
	if err != nil {
		return c, fmt.Errorf("pre-crash mount: %w", err)
	}
	defer fs.Unmount()
	d.FailAfterWrites(k)
	for i, op := range w.Ops {
		if err := core.ApplyOp(fs, op); err != nil {
			if !d.Crashed() {
				return c, fmt.Errorf("op %d (%s) failed without a crash: %w", i, op, err)
			}
			c.crashed = i
			break
		}
		c.completed = i
		if durable(op) {
			c.synced = i
		}
		if staged, _, onDisk := fs.Durability(); onDisk >= staged {
			c.onDisk = i
		}
	}
	return c, nil
}

// recover reboots the crashed image d — the power cut heals, media faults
// do not — mounts it under opts via checkpoint + roll-forward (and NVRAM
// replay, when opts carries one) and verifies it: structural consistency
// plus the durability oracle over the window [floor, crashed].
func (w *Workload) recover(d *disk.Disk, opts core.Options, floor, crashed int) error {
	d.Reopen()
	fs, err := core.Mount(d, opts)
	if err != nil {
		return fmt.Errorf("recovery mount: %w", err)
	}
	defer fs.Unmount()
	if err := checkClean(fs); err != nil {
		return fmt.Errorf("recovered image: %w", err)
	}
	_, err = w.hist.check(fs, floor, crashed, false)
	return err
}

// RunPoint replays the workload against a fresh clone of the starting
// image with power cut after k persisted blocks, then mounts the crashed
// image via roll-forward and verifies it: structural consistency plus
// the durability oracle. It returns nil when recovery is correct. A
// replay that never crashes (it wrote fewer blocks than the recording by
// point k) degenerates to an exact check of the final state.
func (w *Workload) RunPoint(k int64, arm Arm) error {
	if arm.nv() != w.nvAbsorb {
		return fmt.Errorf("crashtest: %s arm on a workload recorded for the other durability model (Record for inline/background, RecordNV for the nvram arms)", arm)
	}
	if k < 0 || k >= w.Total() {
		return fmt.Errorf("crashtest: crash point %d outside [0,%d)", k, w.Total())
	}
	opts := *w.cfg.Opts
	switch {
	case arm == ArmBackground:
		opts.BackgroundClean = true
	case arm.nv():
		opts = nvOptions(w.cfg, w.nvNoGC)
	}
	d := disk.FromSnapshot(w.snap)
	c, err := w.replay(d, opts, k)
	if err != nil {
		return fmt.Errorf("crashtest: %s k=%d: %w", arm, k, err)
	}
	floor := c.synced
	switch arm {
	case ArmInline:
		if c.completed == len(w.Ops)-1 {
			return fmt.Errorf("crashtest: k=%d < total=%d but the replay never crashed (nondeterministic replay?)", k, w.Total())
		}
		if wantC, wantF := w.crashIndex(k), w.floorIndex(k); c.crashed != wantC || floor != wantF {
			return fmt.Errorf("crashtest: k=%d: crashed during op %d with floor op %d, recording says op %d and %d (nondeterministic replay)",
				k, c.crashed, floor, wantC, wantF)
		}
	case ArmNVSurvives:
		floor = c.completed
	case ArmNVLost:
		floor = c.onDisk
		opts.NVRAM, opts.NVSyncAbsorb = nil, false
	}
	if err := w.recover(d, opts, floor, c.crashed); err != nil {
		return fmt.Errorf("crashtest: %s k=%d (crash in op %d, %s; floor op %d): %w",
			arm, k, c.crashed, w.Ops[c.crashed], floor, err)
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
		for _, k := range w.Points() {
			for _, arm := range []Arm{ArmNVSurvives, ArmNVLost} {
				runs++
				if err := w.RunPoint(k, arm); err != nil {
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
		if err := w.RunPoint(k, ArmInline); err != nil {
			return len(points), fmt.Errorf("seed %d: %w", s.Seed, err)
		}
	}
	return len(points), nil
}
