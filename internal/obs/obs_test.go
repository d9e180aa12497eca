package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Tracing() {
		t.Fatal("nil tracer reports Tracing")
	}
	// None of these may panic.
	tr.Emit(Event{Kind: KindDiskIO})
	tr.Add(CtrScrubBlocks, 1)
	tr.Observe("op.read", time.Millisecond)
	tr.SetSink(NewRingSink(4))
	tr.SetClock(func() time.Duration { return time.Second })
	if got := tr.Now(); got != 0 {
		t.Fatalf("nil tracer Now = %v", got)
	}
	snap := tr.Metrics()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil tracer snapshot not empty: %+v", snap)
	}
}

func TestTracerMetricsWithoutSink(t *testing.T) {
	tr := New(nil)
	if tr.Tracing() {
		t.Fatal("sinkless tracer reports Tracing")
	}
	tr.Add("x", 2)
	tr.Add("x", 3)
	tr.Observe("op.write", 2*time.Millisecond)
	tr.Observe("op.write", 4*time.Millisecond)
	snap := tr.Metrics()
	if snap.Counter("x") != 5 {
		t.Fatalf("counter x = %d, want 5", snap.Counter("x"))
	}
	h := snap.Histograms["op.write"]
	if h.Count != 2 || h.Sum != 6*time.Millisecond {
		t.Fatalf("histogram = %+v", h)
	}
	if h.Min != 2*time.Millisecond || h.Max != 4*time.Millisecond {
		t.Fatalf("min/max = %v/%v", h.Min, h.Max)
	}
	if h.Mean() != 3*time.Millisecond {
		t.Fatalf("mean = %v", h.Mean())
	}
	var total int64
	for _, n := range h.Buckets {
		total += n
	}
	if total != h.Count {
		t.Fatalf("bucket sum %d != count %d", total, h.Count)
	}
}

func TestEmitStampsClock(t *testing.T) {
	sink := NewRingSink(8)
	tr := New(sink)
	now := 5 * time.Second
	tr.SetClock(func() time.Duration { return now })
	tr.Emit(Event{Kind: KindCheckpoint, Checkpoint: &Checkpoint{Seq: 1}})
	now = 7 * time.Second
	tr.Emit(Event{T: time.Second, Kind: KindCheckpoint, Checkpoint: &Checkpoint{Seq: 2}})
	evs := sink.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].T != 5*time.Second {
		t.Fatalf("unstamped event T = %v, want clock value", evs[0].T)
	}
	if evs[1].T != time.Second {
		t.Fatalf("pre-stamped event T = %v, want 1s", evs[1].T)
	}
}

func TestRingSinkWraps(t *testing.T) {
	sink := NewRingSink(3)
	for i := 0; i < 5; i++ {
		sink.Emit(Event{T: time.Duration(i), Kind: KindDiskIO})
	}
	evs := sink.Events()
	if len(evs) != 3 {
		t.Fatalf("ring holds %d, want 3", len(evs))
	}
	for i, e := range evs {
		if want := time.Duration(i + 2); e.T != want {
			t.Fatalf("event %d T = %v, want %v (oldest-first order)", i, e.T, want)
		}
	}
	if sink.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", sink.Dropped())
	}
	sink.Reset()
	if len(sink.Events()) != 0 || sink.Dropped() != 0 {
		t.Fatal("reset did not empty the ring")
	}
}

func TestJSONLSinkRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := New(sink)
	tr.Emit(Event{T: time.Millisecond, Kind: KindDiskIO, Disk: &DiskIO{
		Op: "read", Addr: 42, Blocks: 8, Seek: time.Millisecond, Sequential: true,
	}})
	tr.Emit(Event{T: 2 * time.Millisecond, Kind: KindLogWrite, Log: &LogWrite{
		Seg: 3, Addr: 100, Blocks: 9,
		BytesByKind: map[string]int64{"data": 32768, "summary": 4096},
	}})
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var e0, e1 Event
	if err := json.Unmarshal([]byte(lines[0]), &e0); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &e1); err != nil {
		t.Fatal(err)
	}
	if e0.Kind != KindDiskIO || e0.Disk == nil || e0.Disk.Addr != 42 || !e0.Disk.Sequential {
		t.Fatalf("disk event did not round-trip: %+v", e0)
	}
	if e1.Kind != KindLogWrite || e1.Log == nil || e1.Log.BytesByKind["data"] != 32768 {
		t.Fatalf("log event did not round-trip: %+v", e1)
	}
}

func TestMultiSinkFansOut(t *testing.T) {
	a, b := NewRingSink(4), NewRingSink(4)
	tr := New(MultiSink{a, b})
	tr.Emit(Event{T: 1, Kind: KindFSOp, Op: &FSOp{Name: "read"}})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatal("event not fanned out to both sinks")
	}
}

func TestSetSinkSwitchesLive(t *testing.T) {
	tr := New(nil)
	tr.Emit(Event{T: 1, Kind: KindDiskIO}) // dropped: no sink
	sink := NewRingSink(4)
	tr.SetSink(sink)
	if !tr.Tracing() {
		t.Fatal("tracer not tracing after SetSink")
	}
	tr.Emit(Event{T: 2, Kind: KindDiskIO})
	tr.SetSink(nil)
	tr.Emit(Event{T: 3, Kind: KindDiskIO})
	evs := sink.Events()
	if len(evs) != 1 || evs[0].T != 2 {
		t.Fatalf("sink saw %+v, want exactly the event emitted while attached", evs)
	}
}

func TestMetricsConcurrency(t *testing.T) {
	tr := New(NewRingSink(64))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Add("n", 1)
				tr.Observe("op.read", time.Millisecond)
				tr.Emit(Event{T: time.Duration(i), Kind: KindDiskIO})
			}
		}()
	}
	wg.Wait()
	snap := tr.Metrics()
	if snap.Counter("n") != 8000 {
		t.Fatalf("counter = %d, want 8000", snap.Counter("n"))
	}
	if snap.Histograms["op.read"].Count != 8000 {
		t.Fatalf("hist count = %d, want 8000", snap.Histograms["op.read"].Count)
	}
}

func TestSnapshotString(t *testing.T) {
	tr := New(nil)
	tr.Add(CtrScrubBlocks, 3)
	tr.Observe("op.create", 10*time.Millisecond)
	s := tr.Metrics().String()
	if !strings.Contains(s, CtrScrubBlocks) || !strings.Contains(s, "op.create") {
		t.Fatalf("snapshot string missing entries:\n%s", s)
	}
}
