package core

import (
	"fmt"
	"time"

	"repro/internal/layout"
	"repro/internal/obs"
)

// This file implements the transaction-grouped log admission layer,
// modeled on the journal admission scheme of the biscuit kernel's file
// system: every mutating operation declares a bounded worst-case block
// budget before it may touch the file system, an admission gate bounds
// the total budget of admitted-but-unflushed work, and a group-commit
// goroutine turns N concurrent Sync callers into one log flush.
//
// The moving parts:
//
//   - Budgets (opBudget*, writeBudget): a conservative per-op-kind
//     estimate of how many log blocks the operation can stage. Budgets
//     are a flow-control threshold, not a hard space reservation — the
//     log itself still enforces space through the segment reserve and
//     the cleaner — so an underestimate degrades batching, never
//     correctness.
//
//   - The admission gate (opAdmit): a counting semaphore over
//     Options.AdmitBudgetBlocks. A writer whose budget does not fit on
//     top of the already-admitted budgets plus the staged-but-unflushed
//     estimate blocks *outside* fs.mu, kicking the group committer so
//     the staged backlog drains. Per-op budgets are clamped to half the
//     gate so two maximal writers can always interleave.
//
//   - Epochs (stageSeq / flushedSeq): stageSeq counts completed
//     mutating operations; flushedSeq is the stageSeq value the last
//     successful flush covered. The ops between two flushes form a
//     commit epoch. Sync samples want := stageSeq and is satisfied once
//     flushedSeq >= want — whether its own flush or a neighbour's
//     provided it.
//
//   - The group committer (committerLoop): Sync callers enqueue a
//     commitReq and park on its done channel. The committer drains
//     everything queued at wakeup into one batch and performs a single
//     flushLog under fs.mu for the whole batch, so concurrent syncers
//     share one log append + summary write. There is no timer: batching
//     arises naturally from requests queueing while a flush is in
//     progress, which keeps single-threaded runs bit-for-bit identical
//     to the old inline-Sync path (the crash-point harness depends on
//     deterministic replay).
//
// Lock order: fs.mu -> admitMu -> commitMu. opAdmit runs with no other
// lock held and drops admitMu before draining the backlog under fs.mu;
// admitRelease runs under fs.mu (flushLog).

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

// opAdmit blocks until the operation's worst-case budget fits under the
// admission gate, then reserves it. It must be called before fs.mu is
// taken; the returned release function must be called after fs.mu is
// dropped. Budgets above half the gate are clamped so two maximal
// writers can always be admitted together.
func (fs *FS) opAdmit(budget int) func() {
	fs.admitOps.Add(1)
	fs.tr.Add(obs.CtrAdmitOps, 1)
	if fs.opts.NoGroupCommit {
		// Serialized baseline: with no group committer to drain the
		// backlog, gate waits could deadlock a lone writer, and fs.mu
		// already serializes all staging. Admission is a no-op.
		return func() {}
	}
	if half := fs.admitCap / 2; budget > half {
		budget = half
	}
	if budget < 1 {
		budget = 1
	}
	fs.admitMu.Lock()
	waited := false
	var start time.Time
	for !fs.admitClosed && fs.admitFlushErr == nil && fs.admitOpen+int(fs.stagedEst.Load())+budget > fs.admitCap {
		if !waited {
			waited = true
			start = time.Now()
			fs.admitWaits.Add(1)
			fs.tr.Add(obs.CtrAdmitWaits, 1)
		}
		if int(fs.stagedEst.Load()) > 0 && fs.admitOpen+budget <= fs.admitCap {
			// The staged backlog is what keeps us out: flush it
			// ourselves, the parallel-path analog of the buffer-full
			// inline flush. Handing this to the committer instead
			// creates a waiter/committer wakeup cycle that can pin a
			// single-P scheduler (each wakeup lands in the run-next
			// slot) and starve every other goroutine.
			fs.admitMu.Unlock()
			drained := fs.drainBacklog()
			fs.admitMu.Lock()
			if !drained {
				// Unmounted, degraded, or flush failure: stop gating
				// and let the operation observe the error under fs.mu.
				break
			}
			continue
		}
		// Reserved budgets of in-flight operations are what keep us
		// out; wait for a release broadcast.
		fs.admitCond.Wait()
	}
	fs.admitOpen += budget
	fs.admitMu.Unlock()
	if waited {
		// Wall-clock, like the writer-stall histogram: admission waits
		// are a scheduling phenomenon, not a simulated-device cost.
		fs.tr.Observe(obs.HistAdmitWait, time.Since(start))
	}
	return func() {
		// Broadcasts happen with admitMu held so a waiter between its
		// condition check and Wait (which holds admitMu throughout)
		// cannot miss the wakeup.
		fs.admitMu.Lock()
		fs.admitOpen -= budget
		fs.admitCond.Broadcast()
		fs.admitMu.Unlock()
	}
}

// admitClose permanently opens the gate (Unmount): blocked admitters
// pass through and fail the mounted check under fs.mu instead of
// hanging on a file system that will never flush again.
func (fs *FS) admitClose() {
	fs.admitMu.Lock()
	fs.admitClosed = true
	fs.admitCond.Broadcast()
	fs.admitMu.Unlock()
}

// opStaged runs (deferred) at the end of every mutating operation,
// still under fs.mu: it closes the operation's epoch membership and
// refreshes the staged-backlog estimate the admission gate reads. It
// runs even when the operation failed — a failed operation may have
// staged partial state, and a later Sync must still flush it.
func (fs *FS) opStaged() {
	fs.stageSeq.Add(1)
	fs.syncStagedEst()
}

// syncStagedEst refreshes the admission gate's lock-free estimate of
// staged-but-unflushed blocks. Caller holds fs.mu. The estimate is
// deliberately coarse (dirop records and dirty inodes count one block
// each); it only throttles admission, it does not account space.
func (fs *FS) syncStagedEst() {
	fs.stagedEst.Store(int64(fs.dirtyBlocks + len(fs.pendingOps) + len(fs.dirtyInodes)))
}

// admitFlushed publishes a successful flush to the admission gate:
// the staged backlog is empty again, so blocked admitters re-check.
// Caller holds fs.mu (flushLog); admitMu nests inside it, and the
// broadcast happens under admitMu to avoid lost wakeups.
func (fs *FS) admitFlushed() {
	fs.syncStagedEst()
	fs.admitMu.Lock()
	fs.admitFlushErr = nil
	fs.admitCond.Broadcast()
	fs.admitMu.Unlock()
}

// admitNoteFlushErr records a failed commit attempt on the gate. A
// backlog that cannot be flushed (crashed device, degraded mode) will
// never drain, so blocked admitters must pass through the gate and
// observe the failure inline — exactly what the pre-gate serialized
// path did. The note is sticky until the next successful flush clears
// it in admitFlushed.
func (fs *FS) admitNoteFlushErr(err error) {
	fs.admitMu.Lock()
	fs.admitFlushErr = err
	fs.admitCond.Broadcast()
	fs.admitMu.Unlock()
}

// checkpointDue reports whether the byte-triggered checkpoint policy
// wants a checkpoint. Caller holds fs.mu (read or write side;
// bytesSinceCp is only written under the write side).
func (fs *FS) checkpointDue() bool {
	return fs.opts.CheckpointEveryBytes > 0 && fs.bytesSinceCp >= fs.opts.CheckpointEveryBytes
}

// commitReq is one parked Sync (done != nil) or one pressure kick from
// the admission gate (done == nil). want is the stageSeq value the
// requester needs flushedSeq to reach.
type commitReq struct {
	want uint64
	done chan error
}

// startCommitter launches the group-commit goroutine. Called once from
// Format and Mount after the file system is fully initialized; not
// started when Options.NoGroupCommit asks for the serialized baseline.
func (fs *FS) startCommitter() {
	if fs.opts.NoGroupCommit {
		return
	}
	fs.commitMu.Lock()
	fs.commitActive = true
	fs.commitDone = make(chan struct{})
	fs.commitMu.Unlock()
	go fs.committerLoop()
}

// stopCommitter stops and joins the group committer. Safe to call
// multiple times and must be called without fs.mu held (the committer
// needs fs.mu to finish its current batch). Requests enqueued before
// the stop are still served; requests arriving after it fall back to an
// inline flush in requestCommit.
func (fs *FS) stopCommitter() {
	fs.commitMu.Lock()
	if !fs.commitActive {
		fs.commitMu.Unlock()
		return
	}
	fs.commitStopped = true
	fs.commitCond.Broadcast()
	done := fs.commitDone
	fs.commitMu.Unlock()
	<-done
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

// kickCommitAsync enqueues a pressure kick for the group committer
// without waiting on the result: the NVRAM absorb path uses it to let
// the disk catch up to the NVRAM commit epoch in the background. Safe
// to call with fs.mu held (commitMu nests inside fs.mu) and from the
// Sync read path. A no-op when the committer is not running
// (NoGroupCommit, or Unmount already stopped it) — those modes flush at
// the hard backpressure point (a full NVRAM) instead.
func (fs *FS) kickCommitAsync(want uint64) {
	fs.commitMu.Lock()
	if fs.commitActive && !fs.commitStopped {
		fs.commitQueue = append(fs.commitQueue, commitReq{want: want})
		fs.commitCond.Signal()
		fs.nvKicks.Add(1)
		fs.tr.Add(obs.CtrNVAsyncKicks, 1)
	}
	fs.commitMu.Unlock()
}

// requestCommit parks the caller until flushedSeq covers want. When the
// committer is running the request joins the current group; otherwise
// (NoGroupCommit, or an Unmount already stopped the committer) it
// degenerates to an inline flush under fs.mu — the serialized baseline.
func (fs *FS) requestCommit(want uint64) error {
	fs.commitMu.Lock()
	if !fs.commitActive || fs.commitStopped {
		fs.commitMu.Unlock()
		return fs.inlineCommit(want)
	}
	r := commitReq{want: want, done: make(chan error, 1)}
	fs.commitQueue = append(fs.commitQueue, r)
	fs.commitCond.Signal()
	fs.commitMu.Unlock()
	return <-r.done
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

// committerLoop is the group-commit goroutine: wait for requests, drain
// everything queued into one batch, flush once for the whole batch,
// repeat. After a stop it keeps draining until the queue is empty so no
// parked Sync is abandoned.
func (fs *FS) committerLoop() {
	for {
		fs.commitMu.Lock()
		fs.commitInBatch = 0
		for len(fs.commitQueue) == 0 && !fs.commitStopped {
			fs.commitCond.Wait()
		}
		if len(fs.commitQueue) == 0 {
			// Stopped and drained.
			done := fs.commitDone
			fs.commitMu.Unlock()
			close(done)
			return
		}
		batch := fs.commitQueue
		fs.commitQueue = nil
		fs.commitInBatch = len(batch)
		fs.commitMu.Unlock()
		fs.commitBatch(batch)
	}
}

// commitBatch serves one drained batch with at most one flush. Requests
// already covered by an earlier flush ride along for free; that is the
// group-commit amortization.
func (fs *FS) commitBatch(batch []commitReq) {
	var maxWant uint64
	syncers := 0
	for _, r := range batch {
		if r.want > maxWant {
			maxWant = r.want
		}
		if r.done != nil {
			syncers++
		}
	}
	fs.mu.Lock()
	var err error
	switch {
	case !fs.mounted:
		err = ErrUnmounted
	case fs.degraded.Load():
		err = fs.failIfDegraded()
	default:
		fs.stats.GroupCommitSyncs += int64(syncers)
		if int64(syncers) > fs.stats.GroupCommitMaxSyncs {
			fs.stats.GroupCommitMaxSyncs = int64(syncers)
		}
		fs.tr.Add(obs.CtrGroupCommitSyncs, int64(syncers))
		fs.tr.SetMax(obs.CtrGroupCommitMaxSyncs, int64(syncers))
		if fs.flushedSeq.Load() >= maxWant && !fs.checkpointDue() {
			// A previous flush (group or inline) already covers the whole
			// batch: answer without touching the disk. Republish the
			// backlog estimate anyway so gate waiters kicked by a stale
			// estimate re-check rather than sleep on a lost wakeup.
			fs.admitFlushed()
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
		fs.admitNoteFlushErr(err)
	}
	for _, r := range batch {
		if r.done == nil {
			continue
		}
		if err == nil || flushed >= r.want {
			r.done <- nil
		} else {
			r.done <- fmt.Errorf("group commit: %w", err)
		}
	}
}
