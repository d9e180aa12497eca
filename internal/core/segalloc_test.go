package core

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/layout"
)

// usageWith returns a usage table of n segments in which the listed ones
// hold log data.
func usageWith(n int, dirty ...int64) *usageTable {
	u := newUsageTable(n, 16*layout.BlockSize)
	for _, s := range dirty {
		u.noteWrite(s, 1)
	}
	return u
}

// formatted returns the allocator Format leaves behind on n clean segments,
// its first checkpoint written into the head.
func formatted(t *testing.T, n int) (*segAlloc, *usageTable) {
	t.Helper()
	u := usageWith(n)
	a := newSegAlloc(int64(n))
	a.rebuild(u, nil)
	u.noteWrite(a.head, 1)
	mustAudit(t, a, u)
	return a, u
}

func mustAudit(t *testing.T, a *segAlloc, u *usageTable) {
	t.Helper()
	for _, p := range a.audit(u) {
		t.Errorf("audit: %s", p)
	}
}

// advance switches the head and audits the result.
func advance(t *testing.T, a *segAlloc, u *usageTable, privileged bool) error {
	t.Helper()
	err := a.advance(u, 2, privileged)
	mustAudit(t, a, u)
	return err
}

func TestSegAllocRebuild(t *testing.T) {
	ints := func(from, to int64) []int64 {
		var out []int64
		for s := from; s < to; s++ {
			out = append(out, s)
		}
		return out
	}
	for _, tc := range []struct {
		name             string
		n                int64 // segments
		dirty            []int64
		head, off, next  int64 // log position placed before the rebuild; head -1 for none
		recompute, quar  []int64
		wantHead, wantNx int64
		wantQueue        []int64
	}{
		// Format: every segment clean, no log position.
		{name: "format", n: 8, head: -1, next: -1, wantHead: 0, wantNx: 1, wantQueue: ints(2, 8)},
		// Mount: the checkpoint's position, and the segments the log reached
		// since awaiting recomputation, clean in the checkpointed table or not.
		{name: "mount", n: 10, dirty: []int64{0, 1, 2, 6}, head: 3, off: 5, next: 4, recompute: []int64{2, 8}, quar: []int64{7},
			wantHead: 3, wantNx: 4, wantQueue: []int64{5, 9}},
		// Mount with a stale successor: it holds data after all, or the
		// thread hopped into it (next == head), or none was named, or it
		// has been quarantined.
		{name: "mount-next-dirty", n: 6, dirty: []int64{0, 1, 2}, head: 1, next: 2, wantHead: 1, wantNx: 3, wantQueue: []int64{4, 5}},
		{name: "mount-next-is-head", n: 6, dirty: []int64{0}, head: 1, next: 1, wantHead: 1, wantNx: 2, wantQueue: []int64{3, 4, 5}},
		{name: "mount-next-none", n: 6, dirty: []int64{0}, head: 1, next: -1, wantHead: 1, wantNx: 2, wantQueue: []int64{3, 4, 5}},
		{name: "mount-next-quarantined", n: 6, dirty: []int64{0}, head: 1, next: 2, quar: []int64{2}, wantHead: 1, wantNx: 3, wantQueue: []int64{4, 5}},
		// Salvage: no position; the first two clean, healthy segments become
		// head and successor.
		{name: "salvage", n: 8, dirty: []int64{0, 2, 3}, head: -1, next: -1, quar: []int64{1}, wantHead: 4, wantNx: 5, wantQueue: []int64{6, 7}},
		{name: "salvage-one-clean", n: 4, dirty: []int64{0, 1, 2}, head: -1, next: -1, wantHead: 3, wantNx: -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u := usageWith(int(tc.n), tc.dirty...)
			a := newSegAlloc(tc.n)
			for _, s := range tc.quar {
				a.quarantine(s)
			}
			var recount []bool // a mount's: the head it placed and the segments the log reached since
			if tc.head >= 0 {
				a.place(tc.head, tc.off, tc.next)
				recount = make([]bool, tc.n)
				recount[tc.head] = true
			}
			for _, s := range tc.recompute {
				recount[s] = true
			}
			a.rebuild(u, recount)
			if a.head != tc.wantHead || a.next != tc.wantNx || !reflect.DeepEqual(append([]int64(nil), a.queue...), tc.wantQueue) {
				t.Fatalf("head %d next %d queue %v, want %d %d %v", a.head, a.next, a.queue, tc.wantHead, tc.wantNx, tc.wantQueue)
			}
			if tc.head >= 0 && a.headOff != tc.off {
				t.Errorf("head offset %d, want the placed %d", a.headOff, tc.off)
			}
			if len(a.pending()) != 0 || a.free() != len(tc.wantQueue) {
				t.Errorf("%d pending, free() = %d", len(a.pending()), a.free())
			}
			mustAudit(t, a, u)
		})
	}
}

func TestSegAllocAdvanceReserve(t *testing.T) {
	// head 0, next 1, reserveSegments free: one unprivileged advance fits.
	a, u := formatted(t, reserveSegments+2)
	if err := advance(t, a, u, false); err != nil || a.head != 1 || a.next != 2 || a.headOff != 0 {
		t.Fatalf("advance above the reserve: %v, head %d next %d", err, a.head, a.next)
	}
	if u.get(0).Flags&layout.SegFlagActive != 0 || u.get(1).Flags&(layout.SegFlagActive|layout.SegFlagDirty) != layout.SegFlagActive|layout.SegFlagDirty {
		t.Errorf("usage flags after the switch: old head %#x, new head %#x", u.get(0).Flags, u.get(1).Flags)
	}
	// reserveSegments-1 are queued now: ordinary writers stop, the cleaner
	// goes on until nothing is left.
	if a.free() != reserveSegments-1 {
		t.Fatalf("%d free, want %d", a.free(), reserveSegments-1)
	}
	if err := advance(t, a, u, false); !errors.Is(err, ErrNoSpace) || a.head != 1 {
		t.Fatalf("unprivileged advance into the reserve: %v, head %d", err, a.head)
	}
	for want := int64(2); want < int64(len(a.state)); want++ {
		if err := advance(t, a, u, true); err != nil || a.head != want {
			t.Fatalf("privileged advance: %v, head %d, want %d", err, a.head, want)
		}
	}
	if err := advance(t, a, u, true); !errors.Is(err, ErrNoSpace) || a.next != layout.NilAddr {
		t.Fatalf("advance with nothing left: %v, next %d", err, a.next)
	}
}

func TestSegAllocRetireReleaseFIFO(t *testing.T) {
	a, u := formatted(t, 12)
	for i := 0; i < 5; i++ { // head 5, next 6, free 7..11; 0..4 hold data
		if err := advance(t, a, u, true); err != nil {
			t.Fatal(err)
		}
	}
	if a.cleanable(5) || a.cleanable(6) || a.cleanable(7) || !a.cleanable(3) {
		t.Fatal("cleanable: the head, the successor and free segments are not; a dirty one is")
	}
	// The cleaner's order, not segment order, is the order of reuse.
	for _, s := range []int64{3, 0, 4} {
		a.retire(s)
	}
	a.retire(5) // the head is not retired
	a.retire(3) // nor a segment twice
	if !reflect.DeepEqual(a.pending(), []int64{3, 0, 4}) || a.cleanable(3) || !a.is(0, segPending) {
		t.Fatalf("pending %v", a.pending())
	}
	mustAudit(t, a, u)
	a.quarantine(0) // while pending: released, but never handed out
	for _, s := range a.pending() {
		u.markClean(s) // the checkpoint's part
	}
	if got := a.release(); !reflect.DeepEqual(got, []int64{3, 0, 4}) {
		t.Fatalf("release returned %v", got)
	}
	if want := []int64{7, 8, 9, 10, 11, 3, 4}; !reflect.DeepEqual(a.queue, want) || len(a.pending()) != 0 {
		t.Fatalf("queue %v after release, want %v", a.queue, want)
	}
	mustAudit(t, a, u)
	var order []int64
	for a.next != layout.NilAddr {
		if err := advance(t, a, u, true); err != nil {
			t.Fatal(err)
		}
		order = append(order, a.head)
	}
	if want := []int64{6, 7, 8, 9, 10, 11, 3, 4}; !reflect.DeepEqual(order, want) {
		t.Fatalf("segments became the head in order %v, want %v", order, want)
	}
	// A release refills a missing successor.
	a.retire(1)
	u.markClean(1)
	a.release()
	if a.next != 1 || a.free() != 0 {
		t.Fatalf("next %d, %d free after releasing into an empty pool", a.next, a.free())
	}
	mustAudit(t, a, u)
}

// A quarantined segment is never handed out, whichever way round quarantine
// and queueing happened.
func TestSegAllocQuarantineNeverHandedOut(t *testing.T) {
	for _, order := range []string{"quarantine-then-queue", "queue-then-quarantine", "pre-selected"} {
		t.Run(order, func(t *testing.T) {
			const bad = 3
			u := usageWith(8)
			a := newSegAlloc(8)
			switch order {
			case "quarantine-then-queue":
				a.quarantine(bad)
				a.rebuild(u, nil)
				mustAudit(t, a, u)
			case "queue-then-quarantine":
				a.rebuild(u, nil)
				if !a.quarantine(bad) || a.quarantine(bad) {
					t.Fatal("quarantine reports news once")
				}
			case "pre-selected":
				a.rebuild(u, nil)
				for a.next != bad {
					if err := a.advance(u, 1, true); err != nil {
						t.Fatal(err)
					}
				}
				a.quarantine(bad)
			}
			// It may sit pre-selected when the quarantine comes; it must never
			// become the head, and never be selected once quarantined.
			for a.advance(u, 1, true) == nil {
				if a.head == bad || a.next == bad {
					t.Fatalf("quarantined segment %d handed out (head %d, next %d)", bad, a.head, a.next)
				}
			}
			if a.head != 7 || a.is(bad, segFree) || !reflect.DeepEqual(a.quarantinedSegs(), []int64{bad}) {
				t.Fatalf("head %d at the end, quarantined %v", a.head, a.quarantinedSegs())
			}
			if a.quarantine(-1) || a.quarantine(8) {
				t.Error("a segment outside the disk was quarantined")
			}
			c := a.counts()
			if c.Quarantined != 1 || c.Free != 0 || c.Dirty != 7 || c.Head != 7 || c.Next != layout.NilAddr {
				t.Errorf("counts %+v", c)
			}
		})
	}
}

func TestSegAllocResetKeepsQuarantine(t *testing.T) {
	a, u := formatted(t, 6)
	a.quarantine(4)
	a.retire(0)
	a.reset()
	if a.head != layout.NilAddr || a.next != layout.NilAddr || a.free() != 0 || len(a.pending()) != 0 || !a.isQuarantined(4) {
		t.Fatalf("after reset: head %d next %d free %d pending %v quarantined %v", a.head, a.next, a.free(), a.pending(), a.quarantinedSegs())
	}
	a.rebuild(u, nil)
	if want := []int64{3, 5}; a.head != 1 || a.next != 2 || !reflect.DeepEqual(a.queue, want) {
		t.Fatalf("head %d next %d queue %v after reset and rebuild, want 1 2 %v", a.head, a.next, a.queue, want)
	}
}

// The audit reports each way the allocator can disagree with itself or the
// usage table.
func TestSegAllocAudit(t *testing.T) {
	for _, tc := range []struct {
		name   string
		break_ func(a *segAlloc, u *usageTable)
		want   string
	}{
		{"queued twice", func(a *segAlloc, u *usageTable) { a.queue = append(a.queue, a.queue[0]) }, "listed twice"},
		{"free by state only", func(a *segAlloc, u *usageTable) { a.queue = a.queue[1:] }, "is in state"},
		{"two heads", func(a *segAlloc, u *usageTable) { a.set(4, segHead) }, "is in state"},
		{"free but dirty", func(a *segAlloc, u *usageTable) { u.noteWrite(a.queue[0], 1) }, "not clean in the usage table"},
		{"free but quarantined", func(a *segAlloc, u *usageTable) { a.quarantine(a.queue[0]) }, "quarantined"},
		{"pending but clean", func(a *segAlloc, u *usageTable) {
			a.advance(u, 1, true)
			a.retire(0)
			u.markClean(0)
		}, "already clean"},
		{"head not active", func(a *segAlloc, u *usageTable) { u.setActive(a.head, false) }, "active flag"},
		{"no head", func(a *segAlloc, u *usageTable) {
			a.set(a.head, segDirty)
			u.setActive(a.head, false)
			a.head = layout.NilAddr
		}, "no segment"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, u := formatted(t, 8)
			tc.break_(a, u)
			problems := a.audit(u)
			if len(problems) == 0 || !strings.Contains(strings.Join(problems, "\n"), tc.want) {
				t.Fatalf("audit reported %q, want a problem mentioning %q", problems, tc.want)
			}
		})
	}
}

// Readers quarantine while holding only fs.mu.RLock, QuarantinedSegments
// runs with no lock, and the one writer keeps allocating: the quarantine
// set must not share memory with the state bytes (run under -race).
func TestSegAllocQuarantineConcurrent(t *testing.T) {
	const n = 64
	u := usageWith(n)
	a := newSegAlloc(n)
	a.rebuild(u, nil)
	var readers sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for s := g; s < n; s += 4 {
				if s%3 == 0 {
					a.quarantine(s)
				}
				_ = a.isQuarantined((s + 7) % n)
				_ = a.quarantinedSegs()
			}
		}()
	}
	for a.advance(u, 1, true) == nil {
	}
	readers.Wait()
	if got := len(a.quarantinedSegs()); got != (n+2)/3 {
		t.Fatalf("%d segments quarantined, want %d", got, (n+2)/3)
	}
}
