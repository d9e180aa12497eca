package core

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/disk"
	"repro/internal/obs"
)

// This file implements the background segment cleaner
// (Options.BackgroundClean). Section 5.2 of the paper observes that "it
// may be possible to perform much of the cleaning at night or during
// other idle periods, so that clean segments are available during
// bursts of activity"; more generally, cleaning does not have to run on
// the writer's critical path at all. When BackgroundClean is set, the
// file system owns one cleaner goroutine:
//
//   - Mutating operations that see the clean-segment pool below the
//     low-water mark kick the goroutine instead of cleaning inline.
//   - The goroutine runs bounded cleaning steps (one selection +
//     cleaning pass, or one releasing checkpoint, per step) under
//     mu.Lock, dropping the lock between steps so readers and writers
//     interleave with cleaning instead of stalling behind a whole
//     high-water run.
//   - Writers block only when the pool is nearly exhausted, and only at
//     operation boundaries (the epilogue), waiting on spaceCond until
//     the cleaner frees segments — backpressure instead of ErrNoSpace,
//     unless the cleaner itself runs out of reclaimable space. Blocking
//     mid-placement (inside flushLog) is forbidden: spaceCond.Wait
//     releases fs.mu, and mid-placement the dirty cache has been
//     drained while block pointers are still unset, so a reader
//     acquiring mu.RLock would see torn files.
//   - Unmount stops and joins the goroutine before checkpointing.

// startCleaner launches the background cleaner goroutine when the
// options ask for one. Called once from Format and Mount, after the
// file system is fully initialized.
func (fs *FS) startCleaner() {
	if !fs.opts.BackgroundClean {
		return
	}
	fs.cleanerKick = make(chan struct{}, 1)
	fs.cleanerStop = make(chan struct{})
	fs.cleanerDone = make(chan struct{})
	go fs.cleanerLoop()
}

// stopCleaner stops and joins the background cleaner. Safe to call
// multiple times and without fs.mu held (it must NOT be held: the
// cleaner needs it to finish its current step).
func (fs *FS) stopCleaner() {
	if fs.cleanerStop == nil {
		return
	}
	fs.cleanerOnce.Do(func() { close(fs.cleanerStop) })
	<-fs.cleanerDone
}

// backgroundCleaning reports whether this FS delegates cleaning to the
// background goroutine. Caller holds fs.mu (read or write side).
func (fs *FS) backgroundCleaning() bool {
	return fs.cleanerKick != nil
}

// kickCleaner schedules a background cleaning run if one is not already
// scheduled or running. Caller holds fs.mu.Lock.
func (fs *FS) kickCleaner() {
	if !fs.backgroundCleaning() || fs.cleanerErr != nil || fs.cleanerBusy {
		return
	}
	fs.cleanerBusy = true
	// cleanerBusy was false, so the previous kick (if any) has been
	// consumed and the buffered send cannot block.
	fs.cleanerKick <- struct{}{}
	fs.stats.CleanerKicks++
	lag := int64(fs.opts.CleanLowWater - fs.segs.free())
	if lag < 0 {
		lag = 0
	}
	fs.tr.Add(obs.CtrCleanerLagSegments, lag)
	fs.tr.SetMax(obs.CtrCleanerLagMax, lag)
}

// cleanerLoop is the background goroutine: wait for a kick, clean to
// the high-water mark in bounded steps, repeat until stopped.
func (fs *FS) cleanerLoop() {
	defer close(fs.cleanerDone)
	for {
		select {
		case <-fs.cleanerStop:
			fs.mu.Lock()
			fs.cleanerBusy = false
			fs.spaceCond.Broadcast()
			fs.mu.Unlock()
			return
		case <-fs.cleanerKick:
		}
		fs.cleanerRun()
	}
}

// cleanerRun services one kick: bounded cleaning steps until the
// high-water mark is reached, progress stops, or the FS shuts down.
// The lock is dropped (and the scheduler yielded to) between steps so
// concurrent readers and writers are stalled for at most one step, not
// a whole low-to-high-water run.
func (fs *FS) cleanerRun() {
	for {
		select {
		case <-fs.cleanerStop:
			// cleanerLoop's stop case clears cleanerBusy and wakes
			// stalled writers.
			return
		default:
		}
		fs.mu.Lock()
		if !fs.mounted || fs.cleanerErr != nil {
			fs.cleanerBusy = false
			fs.spaceCond.Broadcast()
			fs.mu.Unlock()
			return
		}
		// cleanerOwner (not inCleaner) marks the step's preliminary
		// flush of application traffic: privileged against the segment
		// reserve — the cleaner must never wait for itself — but still
		// attributed to applications, not to cleaning.
		fs.cleanerOwner = true
		progressed, err := fs.cleanStep(fs.opts.CleanHighWater)
		fs.cleanerOwner = false
		if err != nil {
			// A media write error the relocation machinery already
			// absorbed (quarantine + replay) is not a reason to stop
			// cleaning for the life of the mount: skip this run and let
			// the next kick retry against the surviving segments. Only
			// errors that tore state — including relocation failures,
			// which degrade — latch cleanerErr and shut the cleaner down.
			if !errors.Is(err, disk.ErrMediaWrite) || fs.degraded.Load() {
				fs.cleanerErr = err
			}
		} else if progressed {
			fs.tr.Add(obs.CtrCleanerBgPasses, 1)
		}
		done := err != nil || !progressed
		if done {
			fs.cleanerBusy = false
		}
		fs.spaceCond.Broadcast()
		fs.mu.Unlock()
		if done {
			return
		}
		runtime.Gosched()
	}
}

// bgStallThreshold is the epilogue backpressure threshold: a mutating
// operation that ends with fewer clean segments than this blocks until
// the background cleaner replenishes the pool. It sits above the
// cleaner-only reserve by the most segments outstanding work can
// consume before the next epilogue: two in-flight buffer flushes plus
// the whole admitted-but-unflushed budget a group commit can stage in
// one batch (mirroring the CleanLowWater floor in withDefaults), so
// the hard reserve check in advanceSegment — which cannot block — is
// never hit by a writer that respected the epilogue stall.
// withDefaults guarantees CleanLowWater exceeds this, so the cleaner
// is always kicked strictly before writers start stalling.
func (fs *FS) bgStallThreshold() int {
	return reserveSegments +
		(fs.opts.AdmitBudgetBlocks+2*fs.opts.WriteBufferBlocks)/fs.opts.SegmentBlocks
}

// waitForCleanSegments blocks a writer whose epilogue found the pool
// below bgStallThreshold until the background cleaner frees segments.
// Called only from the epilogue — an operation-consistent point: the
// log flush is complete and every map and pointer is up to date, so
// releasing fs.mu inside spaceCond.Wait exposes no torn state to
// readers. Caller holds fs.mu.Lock (the condition variable releases it
// while waiting). Returns nil when the pool has been replenished, the
// cleaner's sticky error if it failed, ErrNoSpace when the cleaner ran
// to completion without freeing enough, or ErrUnmounted.
func (fs *FS) waitForCleanSegments() error {
	fs.kickCleaner()
	fs.stats.WriterStalls++
	// Stall time is host wall-clock, not simulated disk time: the stall
	// is a scheduling phenomenon of the lock discipline, not a device
	// cost (see obs.HistWriterStall).
	start := time.Now()
	defer func() {
		d := time.Since(start)
		fs.stats.WriterStallNanos += d.Nanoseconds()
		fs.tr.Observe(obs.HistWriterStall, d)
	}()
	for {
		if !fs.mounted {
			return ErrUnmounted
		}
		if fs.segs.free() >= fs.bgStallThreshold() {
			return nil
		}
		if fs.cleanerErr != nil {
			return fs.cleanerErr
		}
		if !fs.cleanerBusy {
			// The run our kick (or an earlier one) triggered has
			// completed and the pool is still below the stall threshold:
			// more waiting cannot help.
			return fmt.Errorf("%w: %d clean segments left after background cleaning (cleaner reserve)",
				ErrNoSpace, fs.segs.free())
		}
		fs.spaceCond.Wait()
	}
}
