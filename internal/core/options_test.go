package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/obs"
)

// TestOptionsTable has one row per Options field: what withDefaults makes
// of the zero value (the documented default), an in-range value that must
// survive, and — where the type has one — an out-of-range value and where
// the field's comment says it lands. withDefaults is the only place a
// default is spelled; this is the only place one is repeated.
func TestOptionsTable(t *testing.T) {
	nv := NewNVRAM(1 << 20)
	tr := obs.New(nil)
	floor := reserveSegments + 2 + 4 // CleanLowWater at the default sizes
	rows := []struct {
		field      string
		zero, in   any
		out, lands any // nil: every value of the type is in range
	}{
		{field: "SegmentBlocks", zero: 128, in: 64, out: -1, lands: 128},
		{field: "MaxInodes", zero: 65536, in: 1024, out: -1, lands: 65536},
		{field: "CleanLowWater", zero: floor, in: 40, out: 1, lands: floor},
		{field: "CleanHighWater", zero: floor + 14, in: 60, out: -1, lands: 2 * floor},
		{field: "CleanBatch", zero: 24, in: 8, out: -1, lands: 24},
		{field: "Policy", zero: PolicyCostBenefit, in: PolicyGreedy},
		{field: "NoAgeSort", zero: false, in: true},
		{field: "CleanRead", zero: CleanReadPlanned, in: CleanReadWhole},
		{field: "WriteBufferBlocks", zero: 128, in: 32, out: -1, lands: 128},
		{field: "CheckpointEveryBytes", zero: int64(0), in: int64(1 << 20), out: int64(-1), lands: int64(0)},
		{field: "ReadCacheBlocks", zero: 0, in: 64, out: -5, lands: 0},
		{field: "NoRollForward", zero: false, in: true},
		{field: "NVRAM", zero: (*NVRAM)(nil), in: nv},
		{field: "Tracer", zero: (*obs.Tracer)(nil), in: tr},
	}

	after := func(field string, v any) any {
		var base Options
		if v != nil {
			reflect.ValueOf(&base).Elem().FieldByName(field).Set(reflect.ValueOf(v))
		}
		return reflect.ValueOf(base.withDefaults()).FieldByName(field).Interface()
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.field] = true
		if got := after(r.field, nil); got != r.zero {
			t.Errorf("%s: zero value becomes %v, want the default %v", r.field, got, r.zero)
		}
		if got := after(r.field, r.in); got != r.in {
			t.Errorf("%s: in-range %v becomes %v", r.field, r.in, got)
		}
		if r.out != nil {
			if got := after(r.field, r.out); got != r.lands {
				t.Errorf("%s: out-of-range %v becomes %v, want %v", r.field, r.out, got, r.lands)
			}
		}
	}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		if !seen[typ.Field(i).Name] {
			t.Errorf("Options.%s has no row", typ.Field(i).Name)
		}
	}
	if typ.NumField() != 14 {
		t.Errorf("Options has %d fields, want 14: a new option needs a row and a reason", typ.NumField())
	}
}

// TestOutOfRangeOptionsRun formats with each size that used to be taken at
// its word and completes an operation under a deadline: a negative write
// buffer, or the admission gate sized from it, parked the first Create
// forever in that gate, and MaxInodes -1 became a four-billion-entry inode
// map.
func TestOutOfRangeOptionsRun(t *testing.T) {
	for name, opts := range map[string]Options{
		"WriteBufferBlocks": {WriteBufferBlocks: -1},
		"MaxInodes":         {MaxInodes: -1},
	} {
		t.Run(name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				fs, err := Format(disk.MustNew(disk.DefaultGeometry(4096)), opts)
				if err == nil {
					err = fs.Create("/f")
				}
				if err == nil {
					err = fs.Sync()
				}
				if err == nil {
					want := Options{}.withDefaults()
					if got := fs.Options(); got.WriteBufferBlocks != want.WriteBufferBlocks || got.MaxInodes != want.MaxInodes ||
						fs.gate.cap != 2*want.WriteBufferBlocks {
						t.Errorf("running with %+v, want the defaults", got)
					}
					err = fs.Unmount()
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("Format + Create + Sync did not finish: the first operation is parked in the admission gate")
			}
		})
	}
}
