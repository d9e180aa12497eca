// Package lfs is the public API of the log-structured file system: a Go
// implementation of Rosenblum & Ousterhout, "The Design and
// Implementation of a Log-Structured File System" (SOSP 1991).
//
// The file system runs on a simulated disk (package disk accessed through
// this package's re-exports) whose time model is calibrated to the
// paper's Wren IV drive, which makes benchmark results deterministic and
// host-independent. All of the paper's machinery is implemented: the
// segmented log, inode map, segment usage table, segment summaries, a
// cleaner with greedy and cost-benefit policies plus age sorting,
// two-phase checkpoints and roll-forward crash recovery driven by the
// directory operation log.
//
// A mounted FS is safe for concurrent use: read-only operations
// (ReadFile, ReadAt, Stat, ReadDir) run in parallel with each other
// under a reader lock, and mutating operations serialize against them.
// Setting Options.BackgroundClean moves segment cleaning off the
// writer's critical path into a goroutine owned by the FS: writers low
// on clean segments kick it and keep going, blocking only when the pool
// is nearly exhausted, and Unmount stops it. It is off by default
// because inline cleaning keeps runs fully deterministic, which the
// crash-point tests and the simulated-time benchmarks rely on; see
// `lfsbench -run bgclean` for what it buys concurrent readers.
//
// Quick start:
//
//	d := lfs.NewDisk(76800) // ~300 MB simulated disk
//	fs, err := lfs.Format(d, lfs.Options{})
//	if err != nil { ... }
//	if err := fs.WriteFile("/hello.txt", []byte("hi")); err != nil { ... }
//	data, err := fs.ReadFile("/hello.txt")
//	...
//	fs.Unmount()
//
//	// Later, or after a simulated crash:
//	fs2, err := lfs.Mount(d, lfs.Options{})
package lfs

import (
	"io"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/obs"
)

// FS is a mounted log-structured file system. See the methods on
// core.FS: Create, Mkdir, WriteFile, WriteAt, ReadFile, ReadAt, Truncate,
// Remove, Rename, Link, Stat, ReadDir, Sync, Checkpoint, Clean, Unmount,
// Stats, Check.
type FS = core.FS

// Options configure Format and Mount.
type Options = core.Options

// Stats are the file system's activity counters, including the write
// cost and cleaning statistics the paper reports.
type Stats = core.Stats

// FileInfo describes a file, as returned by (*FS).Stat.
type FileInfo = core.FileInfo

// CheckReport is the result of a full consistency sweep, see (*FS).Check.
type CheckReport = core.CheckReport

// SalvageReport summarizes a last-resort salvage run, see (*FS).Salvage
// and SalvageImage.
type SalvageReport = core.SalvageReport

// SegCounts is a snapshot of the segments by life-cycle state, see
// (*FS).SegmentCounts.
type SegCounts = core.SegCounts

// ScrubReport is the result of a media scrub, see (*FS).Scrub.
type ScrubReport = core.ScrubReport

// ScrubError is one verification failure found by a scrub.
type ScrubError = core.ScrubError

// ErrCorrupted reports a block whose contents fail checksum
// verification; it carries the owning inode, file offset and disk
// address when they are known. Returned (wrapped) by read operations and
// listed in scrub reports.
type ErrCorrupted = core.ErrCorrupted

// Fault describes one injected media fault on the simulated disk; see
// (*Disk).InjectFault. Faults model media damage, so they survive
// (*Disk).Reopen.
type Fault = disk.Fault

// FaultKind selects what an injected fault does.
type FaultKind = disk.FaultKind

// Fault kinds.
const (
	// FaultReadError makes reads of the faulty range fail with an error
	// wrapping ErrMediaRead (a latent sector error).
	FaultReadError = disk.FaultReadError
	// FaultCorrupt makes reads of the faulty range return deterministically
	// corrupted contents (silent bit rot).
	FaultCorrupt = disk.FaultCorrupt
	// FaultWriteError makes writes touching the faulty range fail with an
	// error wrapping ErrMediaWrite (a refused or failed write). Blocks
	// before the first faulty address in a request still persist. Set
	// Fault.Transient to n to make the fault clear itself after n failed
	// attempts; the file system absorbs both shapes via bounded retry (up
	// to four attempts per write) and segment relocation.
	FaultWriteError = disk.FaultWriteError
)

// CleaningPolicy selects how the cleaner chooses segments.
type CleaningPolicy = core.CleaningPolicy

// Cleaning policies.
const (
	// PolicyCostBenefit is the paper's (1-u)*age/(1+u) policy (default).
	PolicyCostBenefit = core.PolicyCostBenefit
	// PolicyGreedy always cleans the least-utilized segments.
	PolicyGreedy = core.PolicyGreedy
)

// NVRAM is a battery-backed write buffer: operations it holds survive a
// crash even before they reach the log (Section 2.1 of the paper). Attach
// one via Options.NVRAM and pass the same NVRAM to Mount after a crash.
type NVRAM = core.NVRAM

// NewNVRAM returns a battery-backed write buffer of the given capacity.
func NewNVRAM(capacity int64) *NVRAM { return core.NewNVRAM(capacity) }

// Disk is the simulated block device the file system runs on.
type Disk = disk.Disk

// DiskGeometry describes the simulated drive's mechanics.
type DiskGeometry = disk.Geometry

// DiskStats snapshot the simulated device's activity and busy time.
type DiskStats = disk.Stats

// Tracer is the observability layer: metrics (counters + latency
// histograms) keyed to simulated disk time, plus an optional event sink.
// Attach one with Options.WithTracer (or by setting Options.Tracer); a
// nil Tracer disables everything at near-zero cost. Read the metrics
// back with (*FS).Metrics.
type Tracer = obs.Tracer

// TraceEvent is one traced occurrence: a disk request, a partial-segment
// log write, a checkpoint, a cleaner decision, or a file-system
// operation. Exactly one payload pointer is non-nil, selected by Kind.
type TraceEvent = obs.Event

// TraceSink receives trace events. Sinks must be passive: they are
// invoked under internal locks and must not call back into the FS.
type TraceSink = obs.Sink

// RingSink keeps the most recent events in a fixed-size ring buffer —
// the sink to use in tests and interactive tools.
type RingSink = obs.RingSink

// JSONLSink encodes each event as one JSON line — the sink behind
// `lfsbench -trace`.
type JSONLSink = obs.JSONLSink

// MetricsSnapshot is a point-in-time copy of a tracer's counters and
// latency histograms.
type MetricsSnapshot = obs.Snapshot

// NewTracer returns a tracer writing events to sink. A nil sink records
// metrics only.
func NewTracer(sink TraceSink) *Tracer { return obs.New(sink) }

// NewRingSink returns a sink retaining the last n events.
func NewRingSink(n int) *RingSink { return obs.NewRingSink(n) }

// NewJSONLSink returns a sink writing one JSON line per event to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONLSink(w) }

// Errors re-exported from the implementation.
var (
	ErrNotFound     = core.ErrNotFound
	ErrExists       = core.ErrExists
	ErrNotDir       = core.ErrNotDir
	ErrIsDir        = core.ErrIsDir
	ErrNotEmpty     = core.ErrNotEmpty
	ErrNoSpace      = core.ErrNoSpace
	ErrNoInodes     = core.ErrNoInodes
	ErrTooManyLinks = core.ErrTooManyLinks
	ErrFileTooBig   = core.ErrFileTooBig
	ErrUnmounted    = core.ErrUnmounted
	ErrNoCheckpoint = core.ErrNoCheckpoint
	ErrBadPath      = core.ErrBadPath
	// ErrMediaRead is the sentinel wrapped by read errors caused by
	// injected media faults (matches with errors.Is).
	ErrMediaRead = core.ErrMediaRead
	// ErrMediaWrite is the write-side twin of ErrMediaRead: the sentinel
	// wrapped by errors from writes the device refused. Operations only
	// surface it after retry, relocation, and the checkpoint-region
	// fallback are all exhausted.
	ErrMediaWrite = core.ErrMediaWrite
	// ErrDegraded is returned by every mutating operation once the file
	// system has entered degraded read-only mode after unrecoverable
	// metadata corruption; see (*FS).Degraded and (*FS).DegradedReason.
	ErrDegraded = core.ErrDegraded
	// ErrCorrupt is the sentinel wrapped by *ErrCorrupted checksum
	// failures (matches with errors.Is).
	ErrCorrupt = core.ErrCorrupt
)

// NewDisk returns a simulated disk with nblocks 4 KB blocks and the
// paper's Wren IV time model (1.3 MB/s transfer, 17.5 ms average seek).
func NewDisk(nblocks int64) *Disk {
	return disk.MustNew(disk.DefaultGeometry(nblocks))
}

// NewDiskGeometry returns a simulated disk with custom mechanics.
func NewDiskGeometry(geo DiskGeometry) (*Disk, error) {
	return disk.New(geo)
}

// LoadDisk reads a disk image written by (*Disk).Save.
func LoadDisk(path string) (*Disk, error) {
	return disk.Load(path)
}

// Format initializes a log-structured file system on d and returns it
// mounted.
func Format(d *Disk, opts Options) (*FS, error) {
	return core.Format(d, opts)
}

// Mount opens an existing file system, recovering from the newest
// checkpoint and rolling the log forward (Section 4 of the paper) unless
// opts.NoRollForward is set.
func Mount(d *Disk, opts Options) (*FS, error) {
	return core.Mount(d, opts)
}

// SalvageImage rebuilds a file system directly from its log, without
// mounting it first — the last-resort repair when Mount fails because
// both checkpoint regions are lost. Only the superblock must survive;
// segment summaries provide everything else. On success the returned FS
// is mounted read-write with a fresh checkpoint. See also (*FS).Salvage
// for repairing a mounted (typically degraded) file system in place.
func SalvageImage(d *Disk, opts Options) (*FS, *SalvageReport, error) {
	return core.SalvageImage(d, opts)
}
