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

// Options configure Format and Mount. The zero value is completed by
// (*Options).withDefaults; defaults follow the paper's production
// configuration (Section 5.1): 4 KB blocks, 512 KB segments, cost-benefit
// selection with age-sorted output, a few tens of segments cleaned at a
// time; the cleaner's marks are sized by need in withDefaults. A size out
// of range falls back quietly: a negative SegmentBlocks, MaxInodes,
// WriteBufferBlocks, AdmitBudgetBlocks or CleanBatch means the default, as
// zero does; a negative ReadCacheBlocks or CheckpointEveryBytes means 0.
type Options struct {
	// SegmentBlocks is the segment size in blocks (default 128 = 512 KB).
	SegmentBlocks int
	// MaxInodes bounds the inode table (default 65536).
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
	// CoarseAgeSort sorts cleaned blocks by the file's single modified
	// time, Sprite LFS's original behaviour, instead of the per-block
	// modified times this implementation records in segment summaries
	// (the improvement Section 3.6 says Sprite planned).
	CoarseAgeSort bool
	// CleanReadLiveOnly makes the cleaner read only the summary blocks
	// and the live blocks of a segment instead of the whole segment.
	// Section 3.4 conjectures this "may be faster ... particularly if the
	// utilization is very low (we haven't tried this in Sprite LFS)"; the
	// trade is fewer bytes read against more, smaller read requests.
	CleanReadLiveOnly bool
	// WriteBufferBlocks is how many dirty blocks accumulate in the file
	// cache before the log is flushed (default: one segment's worth).
	// Larger buffers batch more blocks per log write; smaller buffers
	// model NFS-like eager write-back.
	WriteBufferBlocks int
	// AdmitBudgetBlocks sizes the write admission gate: the total
	// worst-case block budget of admitted-but-unflushed mutating
	// operations (default: 2*WriteBufferBlocks). A writer whose budget
	// does not fit blocks outside fs.mu until the operations ahead of it
	// finish, flushing the staged backlog itself when that is what keeps
	// it out. Individual budgets are clamped to half the gate so two
	// maximal writers can always interleave.
	AdmitBudgetBlocks int
	// NoGroupCommit disables the group-commit goroutine: every Sync
	// flushes inline under fs.mu, one flush per caller, as in the
	// serialized write path. Off by default — group commit lets N
	// concurrent syncers share one log append; with a single writer the
	// two paths produce identical disk traffic.
	NoGroupCommit bool
	// CheckpointEveryBytes forces a checkpoint after this much new data
	// has been logged (0 disables; Section 4.1 discusses this policy as
	// the alternative to fixed intervals). Unmount always checkpoints.
	CheckpointEveryBytes int64
	// ReadCacheBlocks bounds the clean-block read cache (default 0: reads
	// always hit the disk, which is what the paper's micro-benchmarks
	// measure after their cache flush).
	ReadCacheBlocks int
	// Clock supplies logical time for mtimes and cleaning ages. The
	// default is an internal tick that advances on every operation.
	Clock func() uint64
	// NoRollForward makes Mount discard everything after the most recent
	// checkpoint instead of rolling forward (the paper's production
	// configuration, Section 5).
	NoRollForward bool
	// NVRAM attaches a battery-backed write buffer (Section 2.1): every
	// acknowledged operation survives a crash even before it reaches the
	// log. Pass the same NVRAM to Mount after a crash to replay it.
	// NVRAM assumes roll-forward mounts.
	NVRAM *NVRAM
	// NVSyncAbsorb makes the NVRAM redo record the durability point:
	// Sync returns as soon as the caller's epoch is recorded in NVRAM
	// and the log is flushed to disk asynchronously by the group
	// committer (or, with NoGroupCommit, lazily at the next natural
	// flush). Backpressure engages only when the NVRAM fills — that
	// flush runs inline, as Section 2.1's bounded write buffer demands.
	// Requires NVRAM; ignored (cleared by withDefaults) without one.
	// After a crash, mount with the same NVRAM to replay the absorbed
	// epochs; mounting without it falls back to fail-stop recovery of
	// whatever the disk log holds.
	NVSyncAbsorb bool
	// BackgroundClean moves cleaning into a goroutine owned by the FS:
	// mutating operations kick it when clean segments fall below
	// CleanLowWater and block only when the pool is exhausted, instead of
	// cleaning inline. Off by default: inline cleaning keeps runs fully
	// deterministic, which the crash-point tests rely on.
	BackgroundClean bool
	// Tracer attaches the observability layer: per-request disk events,
	// log-write / checkpoint / cleaner-decision events, and metrics
	// keyed to simulated disk time. nil (the default) disables tracing
	// at near-zero cost.
	Tracer *obs.Tracer
}

// WithTracer returns a copy of the options with the tracer attached.
func (o Options) WithTracer(t *obs.Tracer) Options {
	o.Tracer = t
	return o
}

func (o Options) withDefaults() Options {
	if o.NVRAM == nil {
		// Absorbed sync without an NVRAM would acknowledge durability
		// nothing holds; quietly fall back to inline-flush semantics.
		o.NVSyncAbsorb = false
	}
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
	if o.AdmitBudgetBlocks <= 0 {
		o.AdmitBudgetBlocks = 2 * o.WriteBufferBlocks
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
	// can stage in one batch. A smaller explicit mark is raised to that.
	if floor := reserveSegments + 2 +
		(o.AdmitBudgetBlocks+2*o.WriteBufferBlocks)/o.SegmentBlocks; o.CleanLowWater < floor {
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
