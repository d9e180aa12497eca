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
	clock := func() uint64 { return 7 }
	floor := reserveSegments + 2 + 4 // CleanLowWater at the default sizes
	rows := []struct {
		field      string
		base       Options // other fields the row depends on
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
		{field: "CoarseAgeSort", zero: false, in: true},
		{field: "CleanReadLiveOnly", zero: false, in: true},
		{field: "WriteBufferBlocks", zero: 128, in: 32, out: -1, lands: 128},
		{field: "AdmitBudgetBlocks", zero: 256, in: 64, out: -1, lands: 256},
		{field: "NoGroupCommit", zero: false, in: true},
		{field: "CheckpointEveryBytes", zero: int64(0), in: int64(1 << 20), out: int64(-1), lands: int64(0)},
		{field: "ReadCacheBlocks", zero: 0, in: 64, out: -5, lands: 0},
		{field: "Clock", zero: (func() uint64)(nil), in: clock},
		{field: "NoRollForward", zero: false, in: true},
		{field: "NVRAM", zero: (*NVRAM)(nil), in: nv},
		// Absorbed sync needs an NVRAM to absorb into; without one it is
		// cleared.
		{field: "NVSyncAbsorb", base: Options{NVRAM: nv}, zero: false, in: true},
		{field: "NVSyncAbsorb", zero: false, in: false, out: true, lands: false},
		{field: "BackgroundClean", zero: false, in: true},
		{field: "Tracer", zero: (*obs.Tracer)(nil), in: tr},
	}

	// norm makes values comparable: funcs compare by presence only.
	norm := func(v any) any {
		if rv := reflect.ValueOf(v); rv.Kind() == reflect.Func {
			return rv.IsNil()
		}
		return v
	}
	after := func(base Options, field string, v any) any {
		if v != nil {
			reflect.ValueOf(&base).Elem().FieldByName(field).Set(reflect.ValueOf(v))
		}
		return norm(reflect.ValueOf(base.withDefaults()).FieldByName(field).Interface())
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.field] = true
		if got := after(r.base, r.field, nil); got != norm(r.zero) {
			t.Errorf("%s: zero value becomes %v, want the default %v", r.field, got, r.zero)
		}
		if got := after(r.base, r.field, r.in); got != norm(r.in) {
			t.Errorf("%s: in-range %v becomes %v", r.field, r.in, got)
		}
		if r.out != nil {
			if got := after(r.base, r.field, r.out); got != norm(r.lands) {
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
	if typ.NumField() != 20 {
		t.Errorf("Options has %d fields, want 20: a new option needs a row and a reason", typ.NumField())
	}
}

// TestOutOfRangeOptionsRun formats with each size that used to be taken at
// its word and completes an operation under a deadline: a negative gate or
// write buffer parked the first Create forever in the admission gate, and
// MaxInodes -1 became a four-billion-entry inode map.
func TestOutOfRangeOptionsRun(t *testing.T) {
	for name, opts := range map[string]Options{
		"AdmitBudgetBlocks": {AdmitBudgetBlocks: -1},
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
					if got := fs.Options(); got.AdmitBudgetBlocks != want.AdmitBudgetBlocks ||
						got.WriteBufferBlocks != want.WriteBufferBlocks || got.MaxInodes != want.MaxInodes {
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
