package disk

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestReadViewsMatchesRead reads one 6-block range, whose last two blocks
// were never written, as ReadViews on one device and as Read on another:
// clean, with a corruption fault on each block, with a permanent and a
// transient read error on each block, crashed and out of range. Both must
// give the same error, Stats, trace event, metrics counters and bytes; on
// an error every view is nil, and a corrupted view leaves the stored
// block, and the next view of it, as they were.
func TestReadViewsMatchesRead(t *testing.T) {
	const bs, base, n, written = 4096, 10, 6, 4
	type arm struct {
		name string
		addr int64
		set  func(d *Disk)
	}
	arms := []arm{{"clean", base, func(*Disk) {}}}
	inject := func(f Fault) func(*Disk) {
		return func(d *Disk) {
			if err := d.InjectFault(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	for a := int64(0); a < n; a++ {
		arms = append(arms,
			arm{fmt.Sprintf("corrupt-%d", a), base, inject(Fault{Kind: FaultCorrupt, Addr: base + a, Seed: 7})},
			arm{fmt.Sprintf("read-error-%d", a), base, inject(Fault{Kind: FaultReadError, Addr: base + a})},
			arm{fmt.Sprintf("transient-%d", a), base, inject(Fault{Kind: FaultReadError, Addr: base + a, Transient: 1})})
	}
	arms = append(arms, arm{"crashed", base, func(d *Disk) { d.Crash() }},
		arm{"out-of-range", 60, func(*Disk) {}})
	type outcome struct {
		err      string
		stats    Stats
		events   []obs.Event
		counters map[string]int64
		data     []byte
	}
	run := func(a arm, views bool) (outcome, *Disk, [][]byte) {
		d := MustNew(testGeo(64))
		for i := int64(0); i < written; i++ {
			if err := d.WriteBlock(base+i, fill(byte(0x40+i), bs)); err != nil {
				t.Fatal(err)
			}
		}
		d.ResetStats()
		sink := obs.NewRingSink(8)
		d.SetTracer(obs.New(sink))
		a.set(d)
		var err error
		var vs [][]byte
		var data []byte
		if views {
			vs = make([][]byte, n)
			err = d.ReadViews(a.addr, vs)
			for _, v := range vs {
				data = append(data, v...)
			}
		} else {
			data = make([]byte, n*bs)
			err = d.Read(a.addr, data)
		}
		o := outcome{stats: d.Stats(), events: sink.Events(), counters: d.tr.Metrics().Counters, data: data}
		if err != nil {
			o.err = err.Error()
			o.data = nil
		}
		return o, d, vs
	}
	for _, a := range arms {
		v, d, vs := run(a, true)
		r, _, _ := run(a, false)
		if !reflect.DeepEqual(v, r) {
			t.Errorf("%s: ReadViews %+v\nRead %+v", a.name, v, r)
		}
		if v.err != "" {
			if !reflect.DeepEqual(vs, make([][]byte, n)) {
				t.Errorf("%s: a failed ReadViews left views", a.name)
			}
			continue
		}
		for i := int64(0); i < n; i++ {
			stored, _ := d.Peek(a.addr + i)
			want := make([]byte, bs)
			if i < written {
				want = fill(byte(0x40+i), bs)
			}
			if !bytes.Equal(stored, want) {
				t.Errorf("%s: block %d is stored changed", a.name, i)
			}
		}
		if len(d.ActiveFaults()) == 0 {
			continue
		}
		// The fault is stable: a second view of the block is corrupted
		// alike, not twice over.
		again := make([][]byte, n)
		if err := d.ReadViews(a.addr, again); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, vs) {
			t.Errorf("%s: a second ReadViews read other bytes", a.name)
		}
	}

	d := MustNew(testGeo(64))
	if err := d.ReadViews(60, make([][]byte, 5)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out of range: err = %v", err)
	}
}

// viewsOf reads n blocks at addr as views, failing the test on an error.
func viewsOf(t *testing.T, d *Disk, addr int64, n int) [][]byte {
	t.Helper()
	vs := make([][]byte, n)
	if err := d.ReadViews(addr, vs); err != nil {
		t.Fatal(err)
	}
	return vs
}

// A lent block is replaced on its next write, so the view keeps the bytes
// it was read with; once released, the block is written in place again,
// and a Release of a view that is no longer the block's buffer does not
// end the loan of the view that is.
func TestViewLending(t *testing.T) {
	d := MustNew(testGeo(64))
	bs := d.BlockSize()
	write := func(addr int64, v byte) {
		t.Helper()
		if err := d.WriteBlock(addr, fill(v, bs)); err != nil {
			t.Fatal(err)
		}
	}
	write(3, 0xaa)
	old := viewsOf(t, d, 3, 1)
	write(3, 0xbb)
	if !bytes.Equal(old[0], fill(0xaa, bs)) {
		t.Fatal("a write to a lent block changed its view")
	}
	if got, _ := d.Peek(3); !bytes.Equal(got, fill(0xbb, bs)) {
		t.Fatal("the write to a lent block did not land")
	}

	cur := viewsOf(t, d, 3, 1)
	d.Release(3, old) // stale: block 3 holds another buffer now
	write(3, 0xcc)
	if !bytes.Equal(cur[0], fill(0xbb, bs)) || !bytes.Equal(old[0], fill(0xaa, bs)) {
		t.Fatal("a stale Release ended the loan of the block's current view")
	}

	now := viewsOf(t, d, 3, 1)
	d.Release(3, now)
	write(3, 0xdd)
	if !bytes.Equal(now[0], fill(0xdd, bs)) {
		t.Fatal("a released block was not written in place")
	}
	d.Release(3, [][]byte{nil})      // a nil view is passed over
	d.Release(63, make([][]byte, 2)) // so is a range past the end
}

// A never-written block reads as zeroes, through a view shared with every
// other never-written block that no write changes.
func TestViewOfUnwrittenBlock(t *testing.T) {
	d := MustNew(testGeo(64))
	bs := d.BlockSize()
	vs := viewsOf(t, d, 5, 2)
	for i, v := range vs {
		if !bytes.Equal(v, make([]byte, bs)) {
			t.Fatalf("view %d of a never-written block is not zero", i)
		}
	}
	if err := d.WriteBlock(5, fill(0x11, bs)); err != nil {
		t.Fatal(err)
	}
	d.Release(5, vs)
	if err := d.WriteBlock(5, fill(0x22, bs)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vs[0], make([]byte, bs)) || !bytes.Equal(viewsOf(t, d, 6, 1)[0], make([]byte, bs)) {
		t.Fatal("a write reached the shared zero block")
	}
}

// Snapshot, FromSnapshot and Poke each keep a view, and the snapshot, as
// they were: a snapshot taken while a view is lent, and every device made
// from it, stays unchanged when the view is released and the block
// rewritten; a view of a snapshot-made device survives its writes; a poked
// block drops the loan of its old buffer, and the new one is written in
// place.
func TestViewsWithSnapshotsAndPoke(t *testing.T) {
	d := MustNew(testGeo(64))
	bs := d.BlockSize()
	if err := d.WriteBlock(7, fill(0x01, bs)); err != nil {
		t.Fatal(err)
	}
	v := viewsOf(t, d, 7, 1)
	snap := d.Snapshot()
	d.Release(7, v)
	if err := d.WriteBlock(7, fill(0x02, bs)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v[0], fill(0x01, bs)) {
		t.Fatal("a released view shared with a snapshot was written in place")
	}
	c := FromSnapshot(snap)
	cv := viewsOf(t, c, 7, 1)
	if err := c.WriteBlock(7, fill(0x03, bs)); err != nil {
		t.Fatal(err)
	}
	c.Release(7, cv)
	if !bytes.Equal(cv[0], fill(0x01, bs)) {
		t.Fatal("a write on a snapshot-made device changed its view")
	}
	if got, _ := FromSnapshot(snap).Peek(7); !bytes.Equal(got, fill(0x01, bs)) {
		t.Fatal("the snapshot changed")
	}

	p := viewsOf(t, d, 7, 1)
	if err := d.Poke(7, fill(0x04, bs)); err != nil {
		t.Fatal(err)
	}
	d.Release(7, p) // stale
	if !bytes.Equal(p[0], fill(0x02, bs)) {
		t.Fatal("Poke changed a view")
	}
	q := viewsOf(t, d, 7, 1)
	d.Release(7, q)
	if err := d.WriteBlock(7, fill(0x05, bs)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q[0], fill(0x05, bs)) {
		t.Fatal("a poked, released block was not written in place")
	}
}
