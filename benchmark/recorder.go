package main

import (
	"fmt"
	"time"
)

// opKind names the lfs call an op span times. The names are the
// `lfs.<op>.*` per-layer metric prefixes.
type opKind uint8

const (
	opCreate opKind = iota
	opWrite
	opRead
	opStat
	opRemove
	opSync
	opMount
	opSalvage
	opUnmount
	numOps
)

var opNames = [numOps]string{"create", "write", "read", "stat", "remove", "sync", "mount", "salvage", "unmount"}

// A sample packs one timed call into a single int64: duration in the
// high bits, then the aux flag, then the op kind.
const (
	sampleKindBits = 4
	sampleAuxBit   = 1 << sampleKindBits
	sampleShift    = sampleKindBits + 1
)

func sampleKind(s int64) opKind { return opKind(s & (1<<sampleKindBits - 1)) }
func sampleAux(s int64) bool    { return s&sampleAuxBit != 0 }
func sampleDur(s int64) int64   { return s >> sampleShift }

// recorder is one client's measurement log. The untraced run appends one
// int64 per call; the traced run also keeps each call's start so spans
// can be matched against sink events.
type recorder struct {
	base    time.Time
	samples []int64
	starts  []int64 // traced run only, parallel to samples
	marks   []int   // len(samples) at the end of each round
	traced  bool

	attempted int64 // timed calls plus read-back checks
	failed    int64
	firstFail string
}

func newRecorder(base time.Time, traced bool, capacity int) *recorder {
	r := &recorder{base: base, traced: traced, samples: make([]int64, 0, capacity)}
	if traced {
		r.starts = make([]int64, 0, capacity)
	}
	return r
}

// now is the host clock all spans and sink stamps share.
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// done records a counted op that started at t0 and returned err.
func (r *recorder) done(k opKind, t0 int64, err error) {
	r.record(int64(k), t0, err)
}

// doneAux records a call that is timed and traced but is not one of the
// workload's ops (recovery's Stat and Unmount after each mount).
func (r *recorder) doneAux(k opKind, t0 int64, err error) {
	r.record(int64(k)|sampleAuxBit, t0, err)
}

func (r *recorder) record(tag, t0 int64, err error) {
	t1 := r.now()
	r.samples = append(r.samples, (t1-t0)<<sampleShift|tag)
	if r.traced {
		r.starts = append(r.starts, t0)
	}
	r.attempted++
	if err != nil {
		r.fail("%s: %v", opNames[sampleKind(tag)], err)
	}
}

// check counts one correctness check (a read-back compare, a size).
func (r *recorder) check(ok bool, what string) {
	r.attempted++
	if !ok {
		r.fail("%s", what)
	}
}

func (r *recorder) fail(format string, args ...interface{}) {
	r.failed++
	if r.firstFail == "" {
		r.firstFail = fmt.Sprintf(format, args...)
	}
}
