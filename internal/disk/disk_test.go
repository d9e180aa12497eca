package disk

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/obs"
)

func testGeo(nblocks int64) Geometry { return DefaultGeometry(nblocks) }

func TestNewRejectsBadGeometry(t *testing.T) {
	cases := []Geometry{
		{},
		{BlockSize: 4096},
		{BlockSize: 4096, NumBlocks: 10},
		{BlockSize: -1, NumBlocks: 10, BandwidthBytesPerSec: 1e6},
		{BlockSize: 4096, NumBlocks: -5, BandwidthBytesPerSec: 1e6},
	}
	for i, g := range cases {
		if _, err := New(g); err == nil {
			t.Errorf("case %d: New(%+v) succeeded, want error", i, g)
		}
	}
}

func TestReadUnwrittenIsZero(t *testing.T) {
	d := MustNew(testGeo(16))
	buf := make([]byte, d.BlockSize())
	for i := range buf {
		buf[i] = 0xff
	}
	if err := d.Read(3, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := MustNew(testGeo(16))
	want := make([]byte, d.BlockSize())
	for i := range want {
		want[i] = byte(i)
	}
	if err := d.WriteBlock(7, want); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadBlock(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read-back mismatch")
	}
}

func TestMultiBlockRoundTrip(t *testing.T) {
	d := MustNew(testGeo(64))
	bs := d.BlockSize()
	want := make([]byte, 5*bs)
	for i := range want {
		want[i] = byte(i * 7)
	}
	if err := d.Write(10, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5*bs)
	if err := d.Read(10, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("multi-block read-back mismatch")
	}
	// Individual block reads see the same data.
	one, err := d.ReadBlock(12)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one, want[2*bs:3*bs]) {
		t.Fatal("single-block slice mismatch")
	}
}

func TestOutOfRange(t *testing.T) {
	d := MustNew(testGeo(8))
	buf := make([]byte, d.BlockSize())
	if err := d.Read(8, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Read(8) err = %v, want ErrOutOfRange", err)
	}
	if err := d.Read(-1, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Read(-1) err = %v, want ErrOutOfRange", err)
	}
	if err := d.Write(7, make([]byte, 2*d.BlockSize())); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Write straddling end err = %v, want ErrOutOfRange", err)
	}
}

func TestBadBufferSize(t *testing.T) {
	d := MustNew(testGeo(8))
	if err := d.Read(0, make([]byte, 100)); !errors.Is(err, ErrBadSize) {
		t.Errorf("Read odd size err = %v, want ErrBadSize", err)
	}
	if err := d.WriteBlock(0, make([]byte, 100)); !errors.Is(err, ErrBadSize) {
		t.Errorf("WriteBlock odd size err = %v, want ErrBadSize", err)
	}
}

func TestSequentialWritesChargeNoSeek(t *testing.T) {
	d := MustNew(testGeo(1024))
	blk := make([]byte, d.BlockSize())
	if err := d.WriteBlock(0, blk); err != nil {
		t.Fatal(err)
	}
	after := d.Stats()
	for i := int64(1); i < 100; i++ {
		if err := d.WriteBlock(i, blk); err != nil {
			t.Fatal(err)
		}
	}
	delta := d.Stats().Sub(after)
	if delta.Seeks != 0 {
		t.Fatalf("sequential writes incurred %d seeks, want 0", delta.Seeks)
	}
	if delta.SeekTime != 0 {
		t.Fatalf("sequential writes incurred seek time %v", delta.SeekTime)
	}
	// Each separate request still pays rotational latency; one batched
	// request pays it once, which is the batching advantage LFS exploits.
	if delta.RotationTime != 99*d.Geometry().RotationTime/2 {
		t.Fatalf("rotation time %v for 99 separate requests", delta.RotationTime)
	}
	d2 := MustNew(testGeo(1024))
	if err := d2.Write(0, make([]byte, 100*d2.BlockSize())); err != nil {
		t.Fatal(err)
	}
	if st := d2.Stats(); st.RotationTime != d2.Geometry().RotationTime/2 {
		t.Fatalf("batched request rotation = %v, want one half-revolution", st.RotationTime)
	}
}

func TestRandomWritesChargeSeeks(t *testing.T) {
	d := MustNew(testGeo(100000))
	blk := make([]byte, d.BlockSize())
	addrs := []int64{0, 50000, 3, 99999, 41234}
	for _, a := range addrs {
		if err := d.WriteBlock(a, blk); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Seeks != int64(len(addrs)) {
		t.Fatalf("got %d seeks, want %d", st.Seeks, len(addrs))
	}
	if st.SeekTime <= 0 || st.RotationTime <= 0 {
		t.Fatalf("positioning time not charged: %+v", st)
	}
}

func TestAverageSeekNearPaperFigure(t *testing.T) {
	// Uniform random seeks should average about 17.5 ms, the Wren IV
	// figure from the paper.
	geo := testGeo(1 << 20)
	d := MustNew(geo)
	var total time.Duration
	const trials = 2000
	// Deterministic pseudo-random walk over the device.
	pos := int64(0)
	for i := 0; i < trials; i++ {
		pos = (pos*6364136223846793005 + 1442695040888963407) & (1<<20 - 1)
		total += d.seekCurve(pos - int64(i))
	}
	avg := total / trials
	if avg < 14*time.Millisecond || avg > 21*time.Millisecond {
		t.Fatalf("average modeled seek %v, want ~17.5ms", avg)
	}
}

func TestTransferTimeMatchesBandwidth(t *testing.T) {
	geo := testGeo(1024)
	d := MustNew(geo)
	seg := make([]byte, 128*geo.BlockSize) // 512 KB
	if err := d.Write(0, seg); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	wantXfer := time.Duration(float64(len(seg)) / geo.BandwidthBytesPerSec * float64(time.Second))
	diff := st.TransferTime - wantXfer
	if diff < 0 {
		diff = -diff
	}
	if diff > time.Millisecond {
		t.Fatalf("transfer time %v, want ~%v", st.TransferTime, wantXfer)
	}
	// Whole-segment transfer must dwarf the positioning cost (Section 3.2:
	// segment size chosen so transfer time >> seek cost).
	if st.TransferTime < 5*(st.SeekTime+st.RotationTime) {
		t.Fatalf("segment transfer %v not >> positioning %v", st.TransferTime, st.SeekTime+st.RotationTime)
	}
}

// TestReadThroughBlocks pins Geometry.ReadThroughBlocks against charge: up
// to that many unwanted blocks between two wanted runs, one request over
// all of them is cheaper than two requests that skip the gap, at every disk
// size; one block more and the gap's transfer alone outweighs the least a
// second request pays (the shortest seek and half a revolution).
func TestReadThroughBlocks(t *testing.T) {
	geo := testGeo(1024)
	g := geo.ReadThroughBlocks()
	if g != 3 {
		t.Fatalf("ReadThroughBlocks on the Wren IV model = %d, want 3", g)
	}
	const wanted, at = 2, 100
	// busy returns the simulated time of reading the given requests, the
	// head parked right in front of the first.
	busy := func(nblocks int64, reqs ...[2]int64) time.Duration {
		d := MustNew(testGeo(nblocks))
		if err := d.Read(at-1, make([]byte, geo.BlockSize)); err != nil {
			t.Fatal(err)
		}
		pre := d.Stats().BusyTime
		for _, r := range reqs {
			if err := d.Read(r[0], make([]byte, r[1]*int64(geo.BlockSize))); err != nil {
				t.Fatal(err)
			}
		}
		return d.Stats().BusyTime - pre
	}
	for _, nblocks := range []int64{1024, 32768, 1 << 20} {
		for gap := int64(0); gap <= g; gap++ {
			one := busy(nblocks, [2]int64{at, 2*wanted + gap})
			two := busy(nblocks, [2]int64{at, wanted}, [2]int64{at + wanted + gap, wanted})
			if one >= two {
				t.Errorf("%d blocks, gap %d: one request %v, two requests %v", nblocks, gap, one, two)
			}
		}
	}
	d := MustNew(geo)
	if err := d.Read(0, make([]byte, (g+1)*int64(geo.BlockSize))); err != nil {
		t.Fatal(err)
	}
	if xfer, least := d.Stats().TransferTime, geo.MinSeek+geo.RotationTime/2; xfer <= least {
		t.Errorf("a gap of %d blocks transfers in %v, within the %v a second request pays", g+1, xfer, least)
	}
}

func TestCrashStopsWrites(t *testing.T) {
	d := MustNew(testGeo(16))
	blk := make([]byte, d.BlockSize())
	d.Crash()
	if !d.Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}
	if err := d.WriteBlock(0, blk); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash err = %v, want ErrCrashed", err)
	}
	if err := d.Read(0, blk); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read after crash err = %v, want ErrCrashed", err)
	}
	d.Reopen()
	if err := d.WriteBlock(0, blk); err != nil {
		t.Fatalf("write after Reopen err = %v", err)
	}
}

func TestFailAfterWrites(t *testing.T) {
	d := MustNew(testGeo(16))
	blk := make([]byte, d.BlockSize())
	for i := range blk {
		blk[i] = 0xab
	}
	d.FailAfterWrites(3)
	for i := int64(0); i < 3; i++ {
		if err := d.WriteBlock(i, blk); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := d.WriteBlock(3, blk); !errors.Is(err, ErrCrashed) {
		t.Fatalf("4th write err = %v, want ErrCrashed", err)
	}
	d.Reopen()
	// The first three blocks survived, the fourth never hit the media.
	for i := int64(0); i < 3; i++ {
		got, err := d.ReadBlock(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blk) {
			t.Fatalf("block %d lost", i)
		}
	}
	got, err := d.ReadBlock(3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatal("block 3 unexpectedly persisted")
	}
}

func TestTornMultiBlockWrite(t *testing.T) {
	d := MustNew(testGeo(16))
	bs := d.BlockSize()
	data := make([]byte, 4*bs)
	for i := range data {
		data[i] = 0x5a
	}
	d.FailAfterWrites(2)
	if err := d.Write(0, data); !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn write err = %v, want ErrCrashed", err)
	}
	d.Reopen()
	for i := int64(0); i < 2; i++ {
		got, _ := d.ReadBlock(i)
		if got[0] != 0x5a {
			t.Fatalf("leading block %d of torn write lost", i)
		}
	}
	for i := int64(2); i < 4; i++ {
		got, _ := d.ReadBlock(i)
		if got[0] != 0 {
			t.Fatalf("trailing block %d of torn write persisted", i)
		}
	}
}

func TestPeekPokeChargeNoTime(t *testing.T) {
	d := MustNew(testGeo(16))
	blk := make([]byte, d.BlockSize())
	blk[0] = 9
	if err := d.Poke(5, blk); err != nil {
		t.Fatal(err)
	}
	got, err := d.Peek(5)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 {
		t.Fatal("Poke/Peek round trip failed")
	}
	if st := d.Stats(); st.BusyTime != 0 {
		t.Fatalf("Peek/Poke charged busy time %v", st.BusyTime)
	}
}

func TestResetStats(t *testing.T) {
	d := MustNew(testGeo(16))
	_ = d.WriteBlock(1, make([]byte, d.BlockSize()))
	d.ResetStats()
	if st := d.Stats(); st != (Stats{}) {
		t.Fatalf("stats after reset = %+v, want zero", st)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{ReadOps: 5, WriteOps: 7, BlocksRead: 50, BlocksWritten: 70, Seeks: 3,
		SeekTime: 30, RotationTime: 20, TransferTime: 100, BusyTime: 150}
	b := Stats{ReadOps: 2, WriteOps: 3, BlocksRead: 20, BlocksWritten: 30, Seeks: 1,
		SeekTime: 10, RotationTime: 5, TransferTime: 40, BusyTime: 55}
	got := a.Sub(b)
	want := Stats{ReadOps: 3, WriteOps: 4, BlocksRead: 30, BlocksWritten: 40, Seeks: 2,
		SeekTime: 20, RotationTime: 15, TransferTime: 60, BusyTime: 95}
	if got != want {
		t.Fatalf("Sub = %+v, want %+v", got, want)
	}
}

func TestBytesAccessors(t *testing.T) {
	s := Stats{BlocksRead: 3, BlocksWritten: 5}
	if got := s.BytesRead(4096); got != 3*4096 {
		t.Fatalf("BytesRead = %d", got)
	}
	if got := s.BytesWritten(4096); got != 5*4096 {
		t.Fatalf("BytesWritten = %d", got)
	}
}

// Property: any sequence of in-range writes is durable — reading back any
// written block returns the most recently written contents.
func TestQuickWriteDurability(t *testing.T) {
	const nblocks = 64
	d := MustNew(testGeo(nblocks))
	shadow := make(map[int64]byte)
	f := func(addr uint8, fill byte) bool {
		a := int64(addr) % nblocks
		blk := make([]byte, d.BlockSize())
		for i := range blk {
			blk[i] = fill
		}
		if err := d.WriteBlock(a, blk); err != nil {
			return false
		}
		shadow[a] = fill
		for sa, sf := range shadow {
			got, err := d.ReadBlock(sa)
			if err != nil {
				return false
			}
			if got[0] != sf || got[len(got)-1] != sf {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: busy time is monotonically non-decreasing across operations.
func TestQuickBusyTimeMonotonic(t *testing.T) {
	d := MustNew(testGeo(256))
	prev := time.Duration(0)
	f := func(addr uint8, write bool) bool {
		a := int64(addr)
		blk := make([]byte, d.BlockSize())
		var err error
		if write {
			err = d.WriteBlock(a, blk)
		} else {
			err = d.Read(a, blk)
		}
		if err != nil {
			return false
		}
		st := d.Stats()
		ok := st.BusyTime >= prev && st.BusyTime == st.SeekTime+st.RotationTime+st.TransferTime
		prev = st.BusyTime
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A torn write must be charged (seek/rotation/transfer/busy time, head
// movement, block counts) only for the prefix that actually persisted:
// the crash cut the transfer short, and crash-recovery experiments read
// these numbers.
func TestTornWriteChargesOnlyPersistedPrefix(t *testing.T) {
	const total, persisted = 8, 3
	data := make([]byte, total*4096)

	whole := MustNew(testGeo(256))
	if err := whole.Write(16, data); err != nil {
		t.Fatal(err)
	}
	full := whole.Stats()

	prefix := MustNew(testGeo(256))
	if err := prefix.Write(16, data[:persisted*4096]); err != nil {
		t.Fatal(err)
	}
	want := prefix.Stats()

	torn := MustNew(testGeo(256))
	torn.FailAfterWrites(persisted)
	if err := torn.Write(16, data); !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn write err = %v, want ErrCrashed", err)
	}
	got := torn.Stats()

	if got != want {
		t.Errorf("torn write stats = %+v, want the %d-block prefix's %+v", got, persisted, want)
	}
	if got.BlocksWritten != persisted {
		t.Errorf("BlocksWritten = %d, want %d", got.BlocksWritten, persisted)
	}
	if got.TransferTime >= full.TransferTime {
		t.Errorf("torn TransferTime %v not below complete write's %v", got.TransferTime, full.TransferTime)
	}
	if got.BusyTime >= full.BusyTime {
		t.Errorf("torn BusyTime %v not below complete write's %v", got.BusyTime, full.BusyTime)
	}
	// Seek charge (same start address, same initial head) is identical.
	if got.SeekTime != full.SeekTime {
		t.Errorf("torn SeekTime %v != complete write's %v", got.SeekTime, full.SeekTime)
	}
}

// A write that crashes before any block persists charges nothing.
func TestTornWriteZeroPrefixChargesNothing(t *testing.T) {
	d := MustNew(testGeo(256))
	d.FailAfterWrites(0)
	if err := d.WriteBlock(5, make([]byte, 4096)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if got := d.Stats(); got != (Stats{}) {
		t.Errorf("stats after zero-prefix torn write = %+v, want all zero", got)
	}
}

// Every device request emits one trace event whose time breakdown
// matches the Stats deltas, stamped with simulated busy time.
func TestDiskEmitsRequestEvents(t *testing.T) {
	d := MustNew(testGeo(256))
	sink := obs.NewRingSink(16)
	d.SetTracer(obs.New(sink))

	buf := make([]byte, 4*4096)
	if err := d.Write(10, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(10, buf); err != nil { // sequential? head at 14, addr 10: no
		t.Fatal(err)
	}
	if err := d.Read(14, buf); err != nil { // head at 14 after previous read
		t.Fatal(err)
	}

	evs := sink.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	st := d.Stats()
	var busy time.Duration
	for i, e := range evs {
		if e.Kind != obs.KindDiskIO || e.Disk == nil {
			t.Fatalf("event %d: %+v", i, e)
		}
		if e.Disk.Blocks != 4 {
			t.Errorf("event %d blocks = %d, want 4", i, e.Disk.Blocks)
		}
		busy += e.Disk.Seek + e.Disk.Rotation + e.Disk.Transfer
		if e.T != busy {
			t.Errorf("event %d stamped %v, want running busy time %v", i, e.T, busy)
		}
	}
	if evs[0].Disk.Op != "write" || evs[1].Disk.Op != "read" {
		t.Errorf("ops = %s,%s", evs[0].Disk.Op, evs[1].Disk.Op)
	}
	if evs[1].Disk.Sequential {
		t.Error("read at old address reported sequential")
	}
	if !evs[2].Disk.Sequential {
		t.Error("back-to-back read not reported sequential")
	}
	if busy != st.BusyTime {
		t.Errorf("event time sum %v != BusyTime %v", busy, st.BusyTime)
	}
}
