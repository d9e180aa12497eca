package core

import (
	"fmt"
	"sync"

	"repro/internal/layout"
)

// segState is where a segment stands in the life the paper gives it: clean
// → log head → dirty → cleaned → reusable only after the next checkpoint
// (Sections 3.2–3.4, 4.1).
type segState uint8

const (
	segDirty   segState = iota // holds log data, or withdrawn: never handed out
	segFree                    // clean, waiting in the FIFO queue
	segNext                    // clean, pre-selected as the next log head
	segHead                    // the log head
	segPending                 // evacuated; reusable once a checkpoint commits that

	segStateMask segState = 0x0f
	// segRecompute flags a segment whose usage recovery will recompute from the
	// log tail; adjustments to what it recounts (FS.recounted) wait until then.
	segRecompute segState = 0x80
)

// reserveSegments is the part of the clean-segment pool that only the
// cleaner (and checkpoints/recovery) may consume. Ordinary writes stop
// short of it, which guarantees the cleaner always has output space to
// make progress.
const reserveSegments = 4

// SegCounts is a snapshot of the segments by life-cycle state. Quarantined
// segments are counted on their own and again under their state.
type SegCounts struct {
	Head, Next                        int64 // Next is -1 when none is pre-selected
	Free, Pending, Dirty, Quarantined int
}

// segAlloc owns all per-segment allocation state. Segments move only
// through its transitions: advance, retire, release, quarantine, place and
// rebuild. All but the quarantine set is ordered by fs.mu; read-only
// operations quarantine under mu.RLock and QuarantinedSegments takes no
// lock, so that set lives apart from the state bytes under the leaf lock
// qmu (fs.mu → qmu; qmu wraps nothing).
type segAlloc struct {
	state   []segState
	queue   []int64 // free segments, first in first out
	retired []int64 // pending segments, in retire order
	head    int64
	headOff int64 // blocks used in the head segment
	next    int64 // layout.NilAddr if none

	qmu  sync.Mutex
	quar []bool
}

func newSegAlloc(nsegs int64) *segAlloc {
	a := &segAlloc{state: make([]segState, nsegs), quar: make([]bool, nsegs)}
	a.reset()
	return a
}

// reset forgets everything but the quarantine set: known-bad media stays
// withdrawn across a salvage.
func (a *segAlloc) reset() {
	clear(a.state)
	a.queue, a.retired = nil, nil
	a.head, a.headOff, a.next = layout.NilAddr, 0, layout.NilAddr
}

func (a *segAlloc) in(seg int64) bool { return seg >= 0 && seg < int64(len(a.state)) }

// set moves seg to state st, keeping its recompute flag.
func (a *segAlloc) set(seg int64, st segState) { a.state[seg] = a.state[seg]&^segStateMask | st }

func (a *segAlloc) is(seg int64, st segState) bool { return a.state[seg]&segStateMask == st }

// free returns how many segments are immediately available for log writes.
func (a *segAlloc) free() int { return len(a.queue) }

// pending returns the segments awaiting release (read-only).
func (a *segAlloc) pending() []int64 { return a.retired }

// cleanable reports whether the cleaner may evacuate seg: not the head, not
// pre-selected, not already evacuated, not withdrawn.
func (a *segAlloc) cleanable(seg int64) bool { return a.is(seg, segDirty) && !a.isQuarantined(seg) }

// pop moves the oldest free segment to state st, or returns NilAddr when
// none remain. A segment quarantined after it was queued is discarded on
// the way out: it must never become the log head.
func (a *segAlloc) pop(st segState) int64 {
	for len(a.queue) > 0 {
		s := a.queue[0]
		a.queue = a.queue[1:]
		if !a.isQuarantined(s) {
			a.set(s, st)
			return s
		}
		a.set(s, segDirty)
	}
	return layout.NilAddr
}

// advance is the head switch: the pre-selected segment becomes the log head
// at offset 0, written at time now, and takes over the usage table's active
// flag; a new segment is pre-selected. Unprivileged callers may not dip
// into the cleaner reserve. A next segment quarantined since it was
// pre-selected is dropped for a fresh one.
func (a *segAlloc) advance(usage *usageTable, now uint64, privileged bool) error {
	if a.next != layout.NilAddr && a.isQuarantined(a.next) {
		a.set(a.next, segDirty)
		a.next = layout.NilAddr
	}
	if a.next == layout.NilAddr {
		// The pool was empty when the previous advance pre-selected;
		// cleaning may have refilled it since.
		a.next = a.pop(segNext)
	}
	if a.next == layout.NilAddr {
		return fmt.Errorf("%w: no next segment", ErrNoSpace)
	}
	if !privileged && a.free() < reserveSegments {
		return fmt.Errorf("%w: %d clean segments left (cleaner reserve)", ErrNoSpace, a.free())
	}
	a.set(a.head, segDirty)
	usage.setActive(a.head, false)
	a.head, a.headOff = a.next, 0
	a.set(a.head, segHead)
	usage.setActive(a.head, true)
	usage.noteWrite(a.head, now)
	a.next = a.pop(segNext)
	return nil
}

// retire queues seg, just evacuated by the cleaner, for release at the next
// checkpoint. Contract (DESIGN.md §3): every live block collected from seg
// is already staged — the releasing checkpoint marks seg clean relying on
// its own flush having written the copies. A segment quarantined during
// evacuation is not retired: what could not be verified stays in place.
func (a *segAlloc) retire(seg int64) {
	if a.cleanable(seg) {
		a.set(seg, segPending)
		a.retired = append(a.retired, seg)
	}
}

// release is the only way out of the pending state; call it only after the
// checkpoint region write succeeded. The evacuated segments join the free
// queue in retire order, except those quarantined since, which stay
// withdrawn. It returns every segment that was pending.
func (a *segAlloc) release() []int64 {
	released := a.retired
	a.retired = nil
	for _, s := range released {
		a.set(s, segDirty)
		if !a.isQuarantined(s) {
			a.set(s, segFree)
			a.queue = append(a.queue, s)
		}
	}
	if a.next == layout.NilAddr {
		a.next = a.pop(segNext)
	}
	return released
}

// quarantine withdraws seg from service, whatever its state, and reports
// whether that is news. Out-of-range segments are ignored.
func (a *segAlloc) quarantine(seg int64) bool {
	a.qmu.Lock()
	defer a.qmu.Unlock()
	fresh := a.in(seg) && !a.quar[seg]
	if fresh {
		a.quar[seg] = true
	}
	return fresh
}

func (a *segAlloc) isQuarantined(seg int64) bool {
	a.qmu.Lock()
	defer a.qmu.Unlock()
	return a.quar[seg]
}

// quarantinedSegs returns the quarantined segments in ascending order.
func (a *segAlloc) quarantinedSegs() []int64 {
	a.qmu.Lock()
	defer a.qmu.Unlock()
	var out []int64
	for s, q := range a.quar {
		if q {
			out = append(out, int64(s))
		}
	}
	return out
}

// place is recovery's way of saying where the checkpoint, and then
// roll-forward, left the log; the rebuild that follows gives the states.
// The head's usage will be recomputed. A next that is no segment, or is the
// head itself (the thread hopped into it and found nothing), counts as none.
func (a *segAlloc) place(head, off, next int64) {
	if !a.in(next) || next == head {
		next = layout.NilAddr
	}
	a.head, a.headOff, a.next = head, off, next
	a.markRecompute(head)
}

// markRecompute flags seg, if it is one, for usage recomputation.
func (a *segAlloc) markRecompute(seg int64) {
	if a.in(seg) {
		a.state[seg] |= segRecompute
	}
}

func (a *segAlloc) recomputing(seg int64) bool { return a.state[seg]&segRecompute != 0 }

func (a *segAlloc) clearRecompute() {
	for s := range a.state {
		a.state[s] &^= segRecompute
	}
}

// rebuild computes every state from the log position and the usage table —
// the one place the free queue is computed, for format, mount and salvage
// alike: every clean segment that is not the head, not pre-selected, not
// quarantined and not awaiting recomputation, ascending. A pre-selected
// segment that is not allocatable after all is dropped; a missing head
// (format, salvage) and a missing next are then taken from the front of the
// queue. Nothing is pending afterwards, and only the head carries the usage
// table's active flag.
func (a *segAlloc) rebuild(usage *usageTable) {
	allocatable := func(s int64) bool {
		return usage.isClean(s) && !a.recomputing(s) && !a.isQuarantined(s)
	}
	if a.next != layout.NilAddr && !allocatable(a.next) {
		a.next = layout.NilAddr
	}
	a.queue, a.retired = a.queue[:0], nil
	for s := int64(0); s < int64(len(a.state)); s++ {
		switch {
		case s == a.head:
			a.set(s, segHead)
		case s == a.next:
			a.set(s, segNext)
		case allocatable(s):
			a.set(s, segFree)
			a.queue = append(a.queue, s)
		default:
			a.set(s, segDirty)
		}
	}
	if a.head == layout.NilAddr {
		a.head, a.headOff = a.pop(segHead), 0
	}
	if a.next == layout.NilAddr {
		a.next = a.pop(segNext)
	}
	for s := range a.state {
		usage.setActive(int64(s), int64(s) == a.head)
	}
}

// counts tallies the segments by state.
func (a *segAlloc) counts() SegCounts {
	c := SegCounts{Head: a.head, Next: a.next, Quarantined: len(a.quarantinedSegs())}
	for _, st := range a.state {
		switch st & segStateMask {
		case segFree:
			c.Free++
		case segPending:
			c.Pending++
		case segDirty:
			c.Dirty++
		}
	}
	return c
}

// audit is Check's sixth pass: the head, the pre-selected segment, the free
// queue and the pending list name each segment at most once and agree with
// the state bytes; a free or pre-selected segment is clean and not
// quarantined; the head, and only it, carries the active flag; a pending
// segment is not clean yet.
func (a *segAlloc) audit(usage *usageTable) (problems []string) {
	bad := func(seg int64, what string) {
		problems = append(problems, fmt.Sprintf("allocator: segment %d %s", seg, what))
	}
	want := make([]segState, len(a.state))
	mark := func(seg int64, st segState) {
		if !a.in(seg) || want[seg] != segDirty {
			bad(seg, "is listed twice, or is no segment")
			return
		}
		want[seg] = st
	}
	mark(a.head, segHead)
	if a.next != layout.NilAddr {
		mark(a.next, segNext)
	}
	for _, s := range a.queue {
		mark(s, segFree)
	}
	for _, s := range a.retired {
		mark(s, segPending)
	}
	for s := int64(0); s < int64(len(a.state)); s++ {
		st, clean := a.state[s]&segStateMask, usage.isClean(s)
		switch {
		case st != want[s]:
			bad(s, fmt.Sprintf("is in state %d, the log position and queues say %d", st, want[s]))
		case (st == segFree || st == segNext) && (!clean || a.isQuarantined(s)):
			bad(s, "is allocatable but quarantined or not clean in the usage table")
		case st == segPending && clean:
			bad(s, "is pending release but already clean in the usage table")
		case (usage.get(s).Flags&layout.SegFlagActive != 0) != (st == segHead):
			bad(s, "has an active flag that disagrees with the log head")
		}
	}
	return problems
}
