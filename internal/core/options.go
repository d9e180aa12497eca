package core

import "repro/internal/obs"

// CleaningPolicy selects how the cleaner chooses segments to clean
// (Section 3.4, policy question 3).
type CleaningPolicy int

// Cleaning policies.
const (
	// PolicyCostBenefit rates segments by (1-u)*age/(1+u) and cleans the
	// highest ratio first (Section 3.6). This is the paper's headline
	// policy: it cleans cold segments at much higher utilization than hot
	// segments and produces the bimodal segment distribution.
	PolicyCostBenefit CleaningPolicy = iota
	// PolicyGreedy always cleans the least-utilized segments. The paper
	// shows it performs poorly under workloads with locality (Figure 5).
	PolicyGreedy
)

// String implements fmt.Stringer.
func (p CleaningPolicy) String() string {
	switch p {
	case PolicyCostBenefit:
		return "cost-benefit"
	case PolicyGreedy:
		return "greedy"
	default:
		return "unknown"
	}
}

// CleanReadMode selects how the cleaner reads a victim segment (formula 1
// reads it whole; Section 3.4 conjectures reading the live blocks alone).
type CleanReadMode int

// Cleaner read modes.
const (
	// CleanReadPlanned reads the live blocks, one request per run, through
	// any gap of dead blocks that transfers in less time than a second
	// request takes to skip it (disk.Geometry.ReadThroughBlocks).
	CleanReadPlanned CleanReadMode = iota
	// CleanReadWhole reads each victim in one request, as Sprite LFS did.
	CleanReadWhole
	// CleanReadLive reads the live blocks alone, through no gap.
	CleanReadLive
)

var cleanReadNames = [...]string{"planned", "whole", "live"}

// String implements fmt.Stringer.
func (m CleanReadMode) String() string {
	if m < 0 || int(m) >= len(cleanReadNames) {
		return "unknown"
	}
	return cleanReadNames[m]
}

// Options configure Format and Mount. The zero value is completed by
// (*Options).withDefaults; defaults follow the paper's production
// configuration (Section 5.1): 4 KB blocks, 512 KB segments, cost-benefit
// selection with age-sorted output, a few tens of segments cleaned at a
// time; the cleaner's marks are sized by need in withDefaults. A size out
// of range falls back quietly: a negative SegmentBlocks, MaxInodes,
// WriteBufferBlocks or CleanBatch means the default, as zero does; a
// negative ReadCacheBlocks or CheckpointEveryBytes means 0.
type Options struct {
	// SegmentBlocks is the segment size in blocks (default 128 = 512 KB).
	SegmentBlocks int
	// MaxInodes sizes the inode table (default 65536), rounded up to whole
	// inode-map blocks of layout.ImapEntriesPerBlock (185) entries, every
	// one usable from the root's inum up: 256 gives inums 1 to 369.
	MaxInodes int
	// CleanLowWater starts the cleaner when clean segments fall below it.
	// Zero, or anything under the floor safety needs, means that floor
	// (the cleaner-only reserve plus what in-flight writers can consume
	// before they next look): see withDefaults.
	CleanLowWater int
	// CleanHighWater stops a cleaning cycle once this many segments are
	// clean. Zero means one pass's worth above CleanLowWater, so that a
	// cycle is one age-sorted pass and one checkpoint; any other value at
	// or below CleanLowWater means twice CleanLowWater: see withDefaults.
	CleanHighWater int
	// CleanBatch bounds how many segments one pass cleans (Section 3.4,
	// policy question 2: "a few tens of segments at a time"); the output
	// space free at the time bounds it further. Zero means the default in
	// withDefaults.
	CleanBatch int
	// Policy selects the segment-selection policy (default cost-benefit).
	Policy CleaningPolicy
	// NoAgeSort disables sorting live blocks by age before rewriting them
	// (Section 3.4 policy question 4). Age sorting is on by default.
	NoAgeSort bool
	// CleanRead selects how the cleaner reads a victim (default planned).
	CleanRead CleanReadMode
	// WriteBufferBlocks bounds what a buffer-full flush writes, its summary
	// included (default: one segment's worth). The log is flushed once the
	// staged file data, pointer, dirlog and inode blocks reach the largest
	// count below it that ends the flush at a segment boundary, or, with no
	// boundary in reach, fill it with one summary (FS.flushAt). Larger
	// buffers batch more blocks per log write; smaller buffers model
	// NFS-like eager write-back. The write admission gate holds twice this
	// many blocks of admitted-but-unflushed budget (newFS).
	WriteBufferBlocks int
	// CheckpointEveryBytes forces a checkpoint after this much new data
	// has been logged (0 disables; Section 4.1 discusses this policy as
	// the alternative to fixed intervals). Unmount always checkpoints.
	CheckpointEveryBytes int64
	// ReadCacheBlocks bounds the cache of live blocks last read or written
	// (default 0: reads always hit the disk, which is what the paper's
	// micro-benchmarks measure after their cache flush).
	ReadCacheBlocks int
	// NoRollForward makes Mount discard everything after the most recent
	// checkpoint instead of rolling forward. It is a recovery knob, not a
	// test hook: Sprite LFS ran in production this way, checkpointing every
	// 30 seconds and discarding the tail on reboot (Sections 4.2 and 5),
	// and lfsck -noroll checks an image as that configuration sees it.
	NoRollForward bool
	// NVRAM attaches a battery-backed write buffer (Section 2.1) and
	// makes its redo record the commit point: every acknowledged
	// operation survives a crash even before it reaches the log, and
	// Sync returns as soon as the caller's epoch is recorded there,
	// starting no flush. The disk catches up at the next flush that the
	// write buffer or the NVRAM filling, a checkpoint or Unmount
	// triggers. The full-NVRAM flush is the backpressure: it runs inline
	// and empties the NVRAM, as Section 2.1's bounded buffer demands.
	// Pass the same NVRAM to Mount after a crash to replay it; mounting
	// without it falls back to fail-stop recovery of whatever the disk
	// log holds, and a NoRollForward mount discards its contents with
	// the log tail.
	NVRAM *NVRAM
	// Tracer attaches the observability layer: per-request disk events,
	// log-write / checkpoint / cleaner-decision events, and metrics
	// keyed to simulated disk time. nil (the default) disables tracing
	// at near-zero cost.
	Tracer *obs.Tracer
}

func (o Options) withDefaults() Options {
	// A size nothing can run with is as good as unset (a negative gate
	// parks the first operation forever, a negative inode count is 2^32-1).
	if o.SegmentBlocks <= 0 {
		o.SegmentBlocks = 128
	}
	if o.MaxInodes <= 0 {
		o.MaxInodes = 65536
	}
	if o.WriteBufferBlocks <= 0 {
		o.WriteBufferBlocks = o.SegmentBlocks
	}
	o.ReadCacheBlocks = max(o.ReadCacheBlocks, 0)
	o.CheckpointEveryBytes = max(o.CheckpointEveryBytes, 0)
	// The cleaner is sized by need, and its three defaults are spelled
	// here only. Every segment held clean is slack withheld from the
	// segments the cleaner chooses among, paid for in their utilisation
	// (Section 3.4; Lomet & Luo in PAPERS.md), so cleaning starts no
	// earlier than safety demands: before ordinary writes hit the
	// cleaner-only segment reserve, with margin for two in-flight buffer
	// flushes plus the whole admitted-but-unflushed budget a group commit
	// can stage in one batch (the gate's capacity, two more buffers). A
	// smaller explicit mark is raised to that.
	if floor := reserveSegments + 2 + 4*o.WriteBufferBlocks/o.SegmentBlocks; o.CleanLowWater < floor {
		o.CleanLowWater = floor
	}
	// A cycle is one age-sorted pass and one releasing checkpoint: it
	// stops 14 segments above where it started, and a pass may take "a
	// few tens" of victims (Section 3.4) to get there alone, as far as
	// selectByPolicy finds room for their output. EXPERIMENTS.md ("hotcold:
	// why 75 % full is 88 % full") has the sweep behind both numbers.
	if o.CleanHighWater == 0 {
		o.CleanHighWater = o.CleanLowWater + 14
	}
	if o.CleanHighWater <= o.CleanLowWater {
		o.CleanHighWater = 2 * o.CleanLowWater
	}
	if o.CleanBatch <= 0 {
		o.CleanBatch = 24
	}
	return o
}
