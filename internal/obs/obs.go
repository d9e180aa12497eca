// Package obs is a lightweight tracing and metrics layer for the
// log-structured file system. Everything it records is keyed to
// simulated disk time — the same clock the paper's evaluation uses — so
// traces and metrics are deterministic and host-independent, exactly
// like the benchmark numbers they explain.
//
// The layer has two halves:
//
//   - Events: discrete records (one disk request, one partial-segment
//     log write, one cleaner candidate decision, ...) delivered to a
//     pluggable Sink. A RingSink keeps the last N events in memory for
//     tests; a JSONLSink streams them as JSON Lines for tools.
//   - Metrics: named counters and simulated-time latency histograms,
//     accumulated inside the Tracer and read with Metrics().
//
// Cost model: a nil *Tracer is fully disabled and every method on it is
// a nil-check and return. A Tracer without a sink accumulates metrics
// but constructs no events (callers guard event construction with
// Tracing()). Sinks must be passive: an implementation must not call
// back into the device or file system that emitted the event, because
// events can be emitted while internal locks are held.
package obs

import "time"

// Event kinds.
const (
	// KindDiskIO is one simulated device request, with its seek /
	// rotation / transfer breakdown.
	KindDiskIO = "disk.io"
	// KindLogWrite is one partial-segment log write (summary block plus
	// the blocks it describes).
	KindLogWrite = "log.write"
	// KindCheckpoint is one checkpoint-region write.
	KindCheckpoint = "checkpoint"
	// KindRollForward summarizes a completed roll-forward recovery.
	KindRollForward = "recovery.rollforward"
	// KindCleanerCandidate is one segment considered by the cleaner's
	// selection policy, with its score and whether it was chosen.
	KindCleanerCandidate = "cleaner.candidate"
	// KindCleanerPass summarizes one cleaning pass.
	KindCleanerPass = "cleaner.pass"
	// KindFSOp is one public file system operation with its simulated
	// latency.
	KindFSOp = "fs.op"
)

// Counter names used by the instrumented layers. Per-kind log traffic
// uses CtrLogBytesPrefix + the block kind name ("data", "inode", ...),
// mirroring Stats.LogBytesByKind so the two accounting systems can be
// cross-checked.
const (
	CtrDiskReadOps       = "disk.read.ops"
	CtrDiskWriteOps      = "disk.write.ops"
	CtrDiskBlocksRead    = "disk.read.blocks"
	CtrDiskBlocksWritten = "disk.write.blocks"
	CtrLogPartialWrites  = "log.writes"
	CtrLogSummaryBytes   = "log.bytes.summary"
	CtrLogBytesPrefix    = "log.bytes."
	CtrCleanerReadBytes  = "cleaner.read.bytes"
	CtrCleanerWriteBytes = "cleaner.write.bytes"
	CtrCleanerSegments   = "cleaner.segments"
	CtrCleanerPasses     = "cleaner.passes"
	CtrCheckpoints       = "checkpoints"
	CtrRollForwardWrites = "recovery.rollforward.writes"
)

// Concurrency counters, recorded when the file system runs with the
// reader/writer lock discipline and (optionally) the background cleaner.
const (
	// CtrReadersActive is incremented when a read-only operation enters
	// and decremented when it leaves: its instantaneous value is the
	// number of in-flight concurrent readers.
	CtrReadersActive = "fs.readers.active"
	// CtrReadersPeak is the high-water mark of concurrent readers.
	CtrReadersPeak = "fs.readers.peak"
	// CtrWriterStalls counts writers that blocked waiting for the
	// background cleaner to reclaim segments.
	CtrWriterStalls = "fs.writer.stalls"
	// CtrCleanerKicks counts wakeups of the background cleaner.
	CtrCleanerKicks = "cleaner.kicks"
	// CtrCleanerLagSegments sums, over kicks, how far below the low-water
	// mark the clean-segment pool had fallen when the cleaner was woken
	// (divide by CtrCleanerKicks for the average lag).
	CtrCleanerLagSegments = "cleaner.lag.segments"
	// CtrCleanerLagMax is the worst single lag observed at a kick.
	CtrCleanerLagMax = "cleaner.lag.max"
	// CtrCleanerBgPasses counts bounded cleaning steps executed on the
	// background goroutine (foreground steps are CtrCleanerPasses minus
	// this).
	CtrCleanerBgPasses = "cleaner.bg.passes"
)

// Admission-gate and group-commit counters, recorded by the
// transaction-grouped write path.
const (
	// CtrAdmitOps counts mutating operations admitted through the write
	// admission gate.
	CtrAdmitOps = "fs.admit.ops"
	// CtrAdmitWaits counts operations that blocked at the admission gate
	// waiting for the staged backlog to drain.
	CtrAdmitWaits = "fs.admit.waits"
	// CtrGroupCommits counts log flushes executed by the group-commit
	// goroutine.
	CtrGroupCommits = "fs.commit.groups"
	// CtrGroupCommitSyncs counts Sync callers served by group commits;
	// divide by CtrGroupCommits for the amortization factor.
	CtrGroupCommitSyncs = "fs.commit.syncs"
	// CtrGroupCommitMaxSyncs is the largest number of Sync callers one
	// group commit served.
	CtrGroupCommitMaxSyncs = "fs.commit.syncs.max"
	// CtrNVAbsorbedSyncs counts Sync calls the NVRAM commit point
	// satisfied without any disk wait (Options.NVSyncAbsorb).
	CtrNVAbsorbedSyncs = "fs.nv.absorbed.syncs"
	// CtrNVAsyncKicks counts non-blocking committer wakeups issued by
	// the NVRAM absorb path so the disk catches up in the background.
	CtrNVAsyncKicks = "fs.nv.kicks"
	// CtrNVBackpressureFlushes counts inline log flushes forced by a
	// full NVRAM — the absorb mode's backpressure point.
	CtrNVBackpressureFlushes = "fs.nv.backpressure.flushes"
	// CtrWriteRMWReads counts stored blocks the write path fetched
	// (from the read cache or the device) before overwriting part of
	// them: a write that starts mid-block or stops short of EOF, or a
	// truncate zeroing the tail of a clean last block.
	CtrWriteRMWReads = "fs.write.rmw.reads"
)

// Media-fault counters, recorded by the verify-on-read pipeline, the
// cleaner's pre-copy verification, scrub, and the degraded-mode switch.
const (
	// CtrMediaRetries counts read retries issued after a media error.
	CtrMediaRetries = "media.retries"
	// CtrMediaErrors counts reads that still failed with a media error
	// after the bounded retry budget.
	CtrMediaErrors = "media.errors"
	// CtrCorruptBlocks counts blocks whose contents failed checksum
	// verification (silent corruption detected).
	CtrCorruptBlocks = "media.corrupt.blocks"
	// CtrVerifiedBlocks counts blocks that passed checksum verification
	// on ingest.
	CtrVerifiedBlocks = "media.verified.blocks"
	// CtrQuarantinedSegs counts segments placed in quarantine.
	CtrQuarantinedSegs = "media.quarantined.segments"
	// CtrDegraded counts transitions into degraded read-only mode (0 or 1
	// per mount; the mode is sticky).
	CtrDegraded = "fs.degraded"
	// CtrScrubBlocks counts live blocks examined by scrub.
	CtrScrubBlocks = "scrub.blocks"
	// CtrScrubErrors counts checksum or media failures found by scrub.
	CtrScrubErrors = "scrub.errors"
	// CtrMediaWriteRetries counts device-write retries issued after a
	// media write error.
	CtrMediaWriteRetries = "fs.media.write.retries"
	// CtrMediaWriteErrors counts writes that still failed with a media
	// error after the bounded retry budget.
	CtrMediaWriteErrors = "fs.media.write.errors"
	// CtrMediaWriteRelocations counts staged batches replayed into a
	// fresh segment (or checkpoints redirected to the alternate region)
	// after their target refused the write.
	CtrMediaWriteRelocations = "fs.media.write.relocations"
	// CtrSegsRetired counts segments withdrawn from service by the write
	// path: quarantined because they refused a write, never reused.
	CtrSegsRetired = "fs.seg.retired"
	// CtrDegradedReasonPrefix labels the entry into degraded mode: the
	// first degrade call appends its short cause label to this prefix
	// ("fs.degraded.reason.<label>"), so metrics distinguish e.g. a
	// summary-chain failure from exhausted checkpoint regions.
	CtrDegradedReasonPrefix = "fs.degraded.reason."
	// CtrSalvageRuns counts invocations of the last-resort salvage
	// scavenger ((*FS).Salvage / SalvageImage).
	CtrSalvageRuns = "fs.salvage.runs"
	// CtrSalvageInodes counts inodes recovered (newest verifiable
	// version accepted) across salvage runs.
	CtrSalvageInodes = "fs.salvage.inodes.recovered"
	// CtrSalvageOrphans counts recovered inodes that had lost every
	// directory reference and were reconnected under lost+found/.
	CtrSalvageOrphans = "fs.salvage.orphans"
	// CtrSalvageDropped counts log blocks salvage discarded: unreadable,
	// failing their summary CRC, or part of an unverifiable inode chain.
	CtrSalvageDropped = "fs.salvage.blocks.dropped"
	// CtrLogWalkEndPrefix counts finished summary-chain walks by why they
	// stopped ("log.walk.end.<reason>", the reason being a
	// layout.WalkEnd name such as "decode", "seq-regress" or "media").
	CtrLogWalkEndPrefix = "log.walk.end."
	// CtrRecoveryPhasePrefix and CtrSalvagePhasePrefix attribute the
	// device activity of Mount and of a salvage to their phases:
	// "<prefix><phase>.reads" (read requests), ".blocks" (blocks read) and
	// ".sim_us" (simulated busy time, writes included). Mount's phases are
	// cpload (superblock, checkpoint regions, inode map and usage table),
	// rollforward, dirops, usage, commit (the recovery checkpoint) and, with
	// an NVRAM attached, nvreplay; salvage's are scan, accept, rebuild and
	// commit. A phase's counters exist once a run has finished it, and a
	// run's reads add up to disk.read.ops.
	CtrRecoveryPhasePrefix = "fs.recovery."
	CtrSalvagePhasePrefix  = "fs.salvage."
)

// HistWriterStall is the latency histogram of writer stalls behind the
// background cleaner. Unlike the op.* histograms it is recorded in host
// wall-clock time, not simulated disk time: a stall is a scheduling
// phenomenon of the concurrent lock discipline, not of the simulated
// device.
const HistWriterStall = "fs.writer.stall"

// HistAdmitWait is the latency histogram of admission-gate waits, in
// host wall-clock time for the same reason as HistWriterStall.
const HistAdmitWait = "fs.admit.wait"

// HistGroupCommit is the latency histogram of group-commit flushes, in
// simulated disk time: it is the device cost of one batched log append,
// the quantity the group amortizes across its Sync callers.
const HistGroupCommit = "fs.commit.flush"

// OpHistPrefix prefixes the per-operation latency histogram names
// ("op.create", "op.read", "op.write", "op.delete", ...).
const OpHistPrefix = "op."

// Event is one traced occurrence. T is the simulated disk time at
// emission (nanoseconds of accumulated device busy time when encoded as
// JSON). Exactly one payload pointer is set, matching Kind.
type Event struct {
	T    time.Duration `json:"t"`
	Kind string        `json:"kind"`

	Disk        *DiskIO      `json:"disk,omitempty"`
	Log         *LogWrite    `json:"log,omitempty"`
	Checkpoint  *Checkpoint  `json:"checkpoint,omitempty"`
	RollForward *RollForward `json:"rollforward,omitempty"`
	Candidate   *Candidate   `json:"candidate,omitempty"`
	Pass        *CleanerPass `json:"pass,omitempty"`
	Op          *FSOp        `json:"op,omitempty"`
}

// DiskIO describes one simulated device request.
type DiskIO struct {
	Op         string        `json:"op"` // "read" or "write"
	Addr       int64         `json:"addr"`
	Blocks     int           `json:"blocks"` // blocks actually transferred
	Seek       time.Duration `json:"seek"`
	Rotation   time.Duration `json:"rotation"`
	Transfer   time.Duration `json:"transfer"`
	Sequential bool          `json:"sequential"`
	// Torn marks a write cut short by fault injection; Blocks then
	// counts only the persisted prefix.
	Torn bool `json:"torn,omitempty"`
}

// LogWrite describes one partial-segment log write.
type LogWrite struct {
	Seg    int64 `json:"seg"`
	Addr   int64 `json:"addr"`   // address of the summary block
	Blocks int   `json:"blocks"` // blocks written, including the summary
	// BytesByKind breaks the write down by block kind name; the summary
	// block itself is under "summary".
	BytesByKind  map[string]int64 `json:"bytes_by_kind"`
	CleanerBytes int64            `json:"cleaner_bytes"` // written on behalf of the cleaner
	Recovery     bool             `json:"recovery,omitempty"`
}

// Checkpoint describes one checkpoint-region write.
type Checkpoint struct {
	Seq   uint64 `json:"seq"`
	Bytes int64  `json:"bytes"` // checkpoint region size
}

// RollForward summarizes a completed roll-forward recovery.
type RollForward struct {
	Writes int64 `json:"writes"` // log writes issued during recovery
	DirOps int   `json:"dirops"` // directory-operation-log records applied
}

// Candidate is one segment considered by the cleaner's selection
// policy. Chosen reports whether the segment made it into the batch the
// pass actually cleaned (false for every candidate when the whole batch
// was abandoned as infeasible).
type Candidate struct {
	Seg    int64   `json:"seg"`
	U      float64 `json:"u"`
	Age    float64 `json:"age"`
	Score  float64 `json:"score"`
	Policy string  `json:"policy"`
	Chosen bool    `json:"chosen"`
}

// CleanerPass summarizes one cleaning pass.
type CleanerPass struct {
	SegmentsIn          int     `json:"segments_in"`
	LiveBlocksRewritten int64   `json:"live_blocks_rewritten"`
	WriteCost           float64 `json:"write_cost"` // cumulative, so far
}

// FSOp is one public file system operation.
type FSOp struct {
	Name    string        `json:"name"`
	Latency time.Duration `json:"latency"` // simulated disk time consumed
}
