package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/layout"
	"repro/internal/obs"
)

// This file implements the transaction-grouped log admission layer,
// modeled on the journal admission scheme of the biscuit kernel's file
// system: every mutating operation declares a bounded worst-case block
// budget before it may touch the file system (opBudget*, writeBudget), an
// admission gate bounds the total budget of admitted-but-unflushed work
// (admitGate, entered through fs.opAdmit), and a group-commit goroutine
// turns N concurrent Sync callers into one log flush (committer, serving
// fs.commitBatch). Budgets are a flow-control threshold, not a hard space
// reservation — the log itself still enforces space through the segment
// reserve and the cleaner — so an underestimate degrades batching, never
// correctness.
//
// Epochs tie the parts together: stageSeq counts completed mutating
// operations, flushedSeq is the stageSeq value the last successful flush
// covered, and the ops between two flushes form a commit epoch. Sync
// samples want := stageSeq and is satisfied once flushedSeq >= want —
// whether its own flush or a neighbour's provided it.
//
// Lock order: fs.mu -> gate.mu -> commit.mu. The gate and the committer
// each own their lock and call nothing while holding it: enter drops
// gate.mu before draining the backlog under fs.mu; flushed runs under
// fs.mu (flushLog); kick runs under fs.mu or its read side.

// Worst-case block budgets per operation kind. A directory operation
// stages at most: one dirlog block, two directory data blocks (the
// delta suffix usually spans one, two when it straddles a boundary),
// one directory indirect block, one inode block, and slack for the
// inode-map blocks the checkpoint will rewrite.
const (
	opBudgetDirOp    = 8                 // create, mkdir, link, remove
	opBudgetRename   = 2 * opBudgetDirOp // may also unlink a replaced target
	opBudgetTruncate = 6                 // tail RMW block + indirect + inode
)

// writeBudget is the worst-case block budget of a WriteAt/WriteFile
// payload: the data blocks (plus head/tail partials), the indirect
// blocks covering them, and the inode block.
func writeBudget(nbytes int) int {
	blocks := nbytes/layout.BlockSize + 2
	return blocks + blocks/layout.PointersPerBlock + 2
}

// budget is the worst-case block budget of the operation r describes.
func (r *nvRecord) budget() int {
	switch r.kind {
	case nvWriteAt:
		return writeBudget(len(r.data))
	case nvWriteFile:
		return opBudgetDirOp + writeBudget(len(r.data))
	case nvTruncate:
		return opBudgetTruncate
	case nvRename:
		return opBudgetRename
	}
	return opBudgetDirOp
}

// admitGate is the admission gate: a counting semaphore over
// Options.AdmitBudgetBlocks. A writer whose budget does not fit on top of
// the already-admitted budgets plus the staged-but-unflushed estimate
// blocks *outside* fs.mu.
type admitGate struct {
	mu   sync.Mutex
	cond *sync.Cond
	cap  int // gate capacity (Options.AdmitBudgetBlocks), fixed at mount
	open int // total budget of admitted, unfinished operations
	// closed opens the gate for good (Unmount). flushErr is the last failed
	// commit attempt: while set the gate admits unconditionally, so writers
	// observe the failure inline instead of waiting on a backlog that
	// cannot drain; the next successful flush clears it.
	closed   bool
	flushErr error
	// staged is a lock-free estimate of staged-but-unflushed blocks,
	// published under fs.mu (opStaged, flushed). ops and waits count the
	// operations that came to the gate and the subset that blocked there.
	staged, ops, waits atomic.Int64
}

func newAdmitGate(capacity int) *admitGate {
	g := &admitGate{cap: capacity}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// enter blocks until budget fits under the gate, then reserves it; the
// caller hands what was reserved back to leave. Budgets above half the
// gate are clamped so two maximal writers can always be admitted
// together. drain flushes the staged backlog (with no gate lock held) and
// reports whether it could. waited is the wall-clock time spent blocked,
// zero exactly when the budget fitted at once.
func (g *admitGate) enter(budget int, drain func() bool) (reserved int, waited time.Duration) {
	if half := g.cap / 2; budget > half {
		budget = half
	}
	if budget < 1 {
		budget = 1
	}
	g.mu.Lock()
	var start time.Time
	for !g.closed && g.flushErr == nil && g.open+int(g.staged.Load())+budget > g.cap {
		if start.IsZero() {
			start = time.Now()
			g.waits.Add(1)
		}
		if int(g.staged.Load()) > 0 && g.open+budget <= g.cap {
			// The staged backlog is what keeps us out: flush it
			// ourselves, the parallel-path analog of the buffer-full
			// inline flush. Handing this to the committer instead
			// creates a waiter/committer wakeup cycle that can pin a
			// single-P scheduler (each wakeup lands in the run-next
			// slot) and starve every other goroutine.
			g.mu.Unlock()
			drained := drain()
			g.mu.Lock()
			if !drained {
				// Unmounted, degraded, or flush failure: stop gating
				// and let the operation observe the error under fs.mu.
				break
			}
			continue
		}
		// Reserved budgets of in-flight operations are what keep us
		// out; wait for a release broadcast.
		g.cond.Wait()
	}
	g.open += budget
	g.mu.Unlock()
	if !start.IsZero() {
		waited = max(time.Since(start), 1)
	}
	return budget, waited
}

// leave returns a reservation (zero: the gate was not entered). Every
// broadcast on the gate happens with mu held, so a waiter between its
// condition check and Wait (which holds mu throughout) cannot miss it.
func (g *admitGate) leave(reserved int) {
	if reserved == 0 {
		return
	}
	g.mu.Lock()
	g.open -= reserved
	g.cond.Broadcast()
	g.mu.Unlock()
}

// flushed publishes a successful flush: the backlog estimate is staged
// again and any failure note is cleared, so blocked admitters re-check.
// Caller holds fs.mu (flushLog); mu nests inside it.
func (g *admitGate) flushed(staged int) {
	g.staged.Store(int64(staged))
	g.mu.Lock()
	g.flushErr = nil
	g.cond.Broadcast()
	g.mu.Unlock()
}

// failed records a failed commit attempt. A backlog that cannot be
// flushed (crashed device, degraded mode) will never drain, so blocked
// admitters must pass through the gate and observe the failure inline —
// exactly what the pre-gate serialized path did.
func (g *admitGate) failed(err error) {
	g.mu.Lock()
	g.flushErr = err
	g.cond.Broadcast()
	g.mu.Unlock()
}

// close permanently opens the gate (Unmount): blocked admitters pass
// through and fail the mounted check under fs.mu instead of hanging on a
// file system that will never flush again.
func (g *admitGate) close() {
	g.mu.Lock()
	g.closed = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// opAdmit takes the operation's worst-case budget to the admission gate
// and returns what gate.leave must be handed once fs.mu is dropped. It
// must be called before fs.mu is taken. Options.NoGroupCommit skips the
// gate (nothing reserved): fs.mu already serialises all staging, and the
// crash harness's nogc reference arm wants no flush but those the
// operations themselves ask for — a gate waiter drains the backlog with
// a flush of its own.
func (fs *FS) opAdmit(budget int) int {
	fs.gate.ops.Add(1)
	fs.tr.Add(obs.CtrAdmitOps, 1)
	if fs.opts.NoGroupCommit {
		return 0
	}
	reserved, waited := fs.gate.enter(budget, fs.drainBacklog)
	if waited > 0 {
		// Wall-clock, like the writer-stall histogram: admission waits
		// are a scheduling phenomenon, not a simulated-device cost.
		fs.tr.Add(obs.CtrAdmitWaits, 1)
		fs.tr.Observe(obs.HistAdmitWait, waited)
	}
	return reserved
}

// opStaged runs (deferred) at the end of every mutating operation,
// still under fs.mu: it closes the operation's epoch membership and
// refreshes the staged-backlog estimate the admission gate reads. It
// runs even when the operation failed — a failed operation may have
// staged partial state, and a later Sync must still flush it.
func (fs *FS) opStaged() {
	fs.stageSeq.Add(1)
	fs.gate.staged.Store(int64(fs.stagedBlocks()))
}

// stagedBlocks is the admission gate's estimate of staged-but-unflushed
// blocks (caller holds fs.mu), deliberately coarse — dirop records and dirty
// inodes count one block each: it throttles admission, not space.
func (fs *FS) stagedBlocks() int {
	return fs.dirtyBlocks + len(fs.pendingOps) + len(fs.dirtyInodes)
}

// checkpointDue reports whether the byte-triggered checkpoint policy
// wants a checkpoint. Caller holds fs.mu (read or write side;
// bytesSinceCp is only written under the write side).
func (fs *FS) checkpointDue() bool {
	return fs.opts.CheckpointEveryBytes > 0 && fs.bytesSinceCp >= fs.opts.CheckpointEveryBytes
}

// commitReq is one Sync parked in the committer's queue. want is the
// stageSeq value it needs flushedSeq to reach.
type commitReq struct {
	want uint64
	done chan error
}

// committer is the group-commit goroutine's queue and life cycle. It is
// running from start until stop; outside that window wait and kick report
// so and the caller falls back (inlineCommit, or nothing for a kick).
// There is no timer: batching arises from requests queueing while a flush
// is in progress, which keeps single-threaded runs bit-for-bit identical to
// the inline-Sync path (the crash harness depends on deterministic replay).
type committer struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []commitReq // callers parked in wait, nothing else
	// An async kick parks nobody, so it leaves no request behind: it
	// raises kickWant and sets kicked, however many arrive during a flush.
	kickWant uint64
	kicked   bool
	serving  int           // parked callers the loop has drained and is serving
	stopped  bool          // stop was called
	done     chan struct{} // non-nil once started; closed when the loop exits
	kicks    atomic.Int64  // async kicks accepted (Stats.NVAsyncKicks)
}

func newCommitter() *committer {
	c := &committer{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// start launches the loop: wait for requests, drain everything queued into
// one batch, call serve once for the whole batch — want is the largest
// epoch asked for, syncers the parked callers, each of which serve must
// answer on its done channel — and repeat.
func (c *committer) start(serve func(want uint64, syncers []commitReq)) {
	c.mu.Lock()
	c.done = make(chan struct{})
	c.mu.Unlock()
	go func() {
		for {
			c.mu.Lock()
			c.serving = 0
			for len(c.queue) == 0 && !c.kicked && !c.stopped {
				c.cond.Wait()
			}
			if len(c.queue) == 0 && !c.kicked {
				// Stopped and drained.
				c.mu.Unlock()
				close(c.done)
				return
			}
			batch, want := c.queue, c.kickWant
			c.queue, c.kickWant, c.kicked = nil, 0, false
			c.serving = len(batch)
			c.mu.Unlock()
			for _, r := range batch {
				want = max(want, r.want)
			}
			serve(want, batch)
		}
	}()
}

// stop stops and joins the loop. Safe to call more than once and before
// start; must be called without fs.mu held (the loop needs it to finish its
// batch). Everything queued or kicked before the stop is still served.
func (c *committer) stop() {
	c.mu.Lock()
	done := c.done
	c.stopped = true
	c.cond.Broadcast()
	c.mu.Unlock()
	if done != nil {
		<-done
	}
}

func (c *committer) running() bool { return c.done != nil && !c.stopped }

// wait parks the caller until a batch that includes it has been served and
// returns that batch's answer; ok is false, and nothing was queued, when
// the loop is not running.
func (c *committer) wait(want uint64) (err error, ok bool) {
	c.mu.Lock()
	if !c.running() {
		c.mu.Unlock()
		return nil, false
	}
	r := commitReq{want: want, done: make(chan error, 1)}
	c.queue = append(c.queue, r)
	c.cond.Signal()
	c.mu.Unlock()
	return <-r.done, true
}

// kick asks for a flush covering want without waiting for it, and reports
// whether the loop is running to take the request. Safe under fs.mu.
func (c *committer) kick(want uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.running() {
		return false
	}
	c.kickWant, c.kicked = max(c.kickWant, want), true
	c.cond.Signal()
	c.kicks.Add(1)
	return true
}

// parked is how many wait callers are queued or being served.
func (c *committer) parked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue) + c.serving
}

// startCommitter launches the group-commit goroutine once Format or Mount
// has initialized everything, unless Options.NoGroupCommit asks for none.
func (fs *FS) startCommitter() {
	if !fs.opts.NoGroupCommit {
		fs.commit.start(fs.commitBatch)
	}
}

// drainBacklog flushes the staged backlog on behalf of a gate waiter.
// It must be called with no locks held. Returns false when the flush
// cannot proceed (unmounted, degraded, or a flush error): the waiter
// should stop gating and let the operation observe the failure under
// fs.mu.
func (fs *FS) drainBacklog() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.mounted || fs.failIfDegraded() != nil {
		return false
	}
	return fs.flushLog() == nil
}

// kickCommitAsync lets the disk catch up to the NVRAM commit epoch in the
// background (the NVRAM absorb path; fs.mu or its read side may be held).
// A no-op when the committer is not running (NoGroupCommit, or Unmount
// already stopped it) — those modes flush at the hard backpressure point
// (a full NVRAM) instead.
func (fs *FS) kickCommitAsync(want uint64) {
	if fs.commit.kick(want) {
		fs.tr.Add(obs.CtrNVAsyncKicks, 1)
	}
}

// requestCommit parks the caller until flushedSeq covers want: in the
// committer's current group, or without one (NoGroupCommit, or an Unmount
// already stopped it) by an inline flush — the serialized baseline.
func (fs *FS) requestCommit(want uint64) error {
	if err, ok := fs.commit.wait(want); ok {
		return err
	}
	return fs.inlineCommit(want)
}

// inlineCommit is the serialized commit path: one flush per caller,
// under the caller's own fs.mu critical section.
func (fs *FS) inlineCommit(want uint64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.mounted {
		return ErrUnmounted
	}
	if err := fs.failIfDegraded(); err != nil {
		return err
	}
	if fs.flushedSeq.Load() >= want && !fs.checkpointDue() {
		return nil
	}
	return fs.flushLog()
}

// commitBatch is what the committer serves a drained batch with: at most
// one flush, for the largest epoch anyone in it asked for. Requests already
// covered by an earlier flush ride along for free; that is the group-commit
// amortization.
func (fs *FS) commitBatch(maxWant uint64, batch []commitReq) {
	syncers := int64(len(batch))
	fs.mu.Lock()
	var err error
	switch {
	case !fs.mounted:
		err = ErrUnmounted
	case fs.degraded.Load():
		err = fs.failIfDegraded()
	default:
		fs.stats.GroupCommitSyncs += syncers
		fs.stats.GroupCommitMaxSyncs = max(fs.stats.GroupCommitMaxSyncs, syncers)
		fs.tr.Add(obs.CtrGroupCommitSyncs, syncers)
		fs.tr.SetMax(obs.CtrGroupCommitMaxSyncs, syncers)
		if fs.flushedSeq.Load() >= maxWant && !fs.checkpointDue() {
			// A previous flush (group or inline) already covers the whole
			// batch: answer without touching the disk. Republish the
			// backlog estimate anyway so gate waiters kicked by a stale
			// estimate re-check rather than sleep on a lost wakeup.
			fs.gate.flushed(fs.stagedBlocks())
			break
		}
		start := fs.dev.Stats().BusyTime
		err = fs.flushLog()
		lat := fs.dev.Stats().BusyTime - start
		fs.stats.GroupCommits++
		fs.tr.Add(obs.CtrGroupCommits, 1)
		fs.tr.Observe(obs.HistGroupCommit, lat)
		// Cleaner interlock: the batch flush consumes segments on behalf
		// of callers that are parked outside fs.mu, so their epilogues
		// never saw the drop. Kick the cleaner here (non-blocking);
		// actual backpressure still lands only at op boundaries.
		if err == nil && fs.backgroundCleaning() &&
			fs.cleanerErr == nil && fs.segs.free() < fs.opts.CleanLowWater {
			fs.kickCleaner()
		}
	}
	flushed := fs.flushedSeq.Load()
	fs.mu.Unlock()
	if err != nil {
		fs.gate.failed(err)
	}
	for _, r := range batch {
		if err == nil || flushed >= r.want {
			r.done <- nil
		} else {
			r.done <- fmt.Errorf("group commit: %w", err)
		}
	}
}
