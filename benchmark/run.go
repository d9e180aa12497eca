package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/layout"
	"repro/lfs"
)

// measurement is one reported metric.
type measurement struct {
	Name  string
	Value float64
	Unit  string
}

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median, and the last instance is the one measured.
const setupRepeats = 3

// recorderCap is room for the calls one client makes in a 15 s section
// at about twice today's rates, so the sample slice never grows mid-run.
const recorderCap = 1 << 22

// config selects one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	quick    bool // one round of ≈1 % op counts, whatever seconds says
	traceDir string
}

// fixedRounds is how many rounds a pass runs regardless of the clock: one
// in quick mode, 0 (run for cfg.seconds) otherwise.
func (cfg config) fixedRounds() int {
	if cfg.quick {
		return 1
	}
	return 0
}

// instance sets a workload up once and reports how long that took.
func instance(cfg config, tr *lfs.Tracer) (workload, float64, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := w.setup(params{seed: cfg.seed, quick: cfg.quick, tr: tr}); err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", cfg.workload, err)
	}
	return w, time.Since(t0).Seconds(), nil
}

// discard unmounts an instance that will not be measured.
func discard(w workload) error {
	var err error
	if fs := w.mounted(); fs != nil {
		err = fs.Unmount()
	}
	w.release()
	runtime.GC()
	return err
}

// pass is one measured section: whole rounds of a set-up workload.
type pass struct {
	w      workload
	base   time.Time // zero of every span and sink stamp
	recs   []*recorder
	rounds int
	began  int64         // when the clock started, ns since base
	ends   []int64       // when each round ended, ns since base
	wall   time.Duration // of the rounds alone, as is cpu
	cpu    time.Duration
	// slowdown is the control kernel's verdict on the machine during this
	// pass (see control.go): 1 on the quiet reference box.
	slowdown float64
	control  string // the samples behind slowdown, for the run's notes
	mallocs  uint64
	fs       lfs.Stats
	dev      lfs.DiskStats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runRounds measures w over exactly `rounds` rounds or, when rounds is 0,
// over whole rounds until they have taken `seconds`. After each round, off
// the clock, it probes the control kernel. attach, if not nil, runs right
// before the first round (the traced run hooks its sink up there).
func runRounds(w workload, rounds int, seconds float64, traced bool, attach func(base time.Time)) *pass {
	p := &pass{w: w, base: time.Now()}
	ctl := newControl()
	for c := 0; c < w.clients(); c++ {
		p.recs = append(p.recs, newRecorder(p.base, traced, recorderCap))
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	if attach != nil {
		attach(p.base)
	}
	w.begin()
	p.began = int64(time.Since(p.base))
	for {
		cpu0, t0 := cpuTime(), time.Now()
		w.round(p.rounds, p.recs)
		p.wall += time.Since(t0)
		p.cpu += cpuTime() - cpu0
		p.rounds++
		p.ends = append(p.ends, int64(time.Since(p.base)))
		for _, r := range p.recs {
			r.marks = append(r.marks, len(r.samples))
		}
		ctl.probe()
		if rounds > 0 && p.rounds == rounds {
			break
		}
		if rounds == 0 && p.wall.Seconds() >= seconds {
			break
		}
	}
	p.slowdown = ctl.slowdown()
	p.control = fmt.Sprintf("control kernel %.0f ns per block on two threads, %.0f ns on one, nominal %.0f: ran %.3f× nominal",
		median(ctl.pair), median(ctl.solo), controlNominalNs, p.slowdown)
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - mallocs0
	p.fs, p.dev = w.stats()
	return p
}

// counted returns the durations (ns, ascending) of the ops of rounds
// [from, to).
func (p *pass) counted(from, to int) []int64 {
	var d []int64
	for _, r := range p.recs {
		lo := 0
		if from > 0 {
			lo = r.marks[from-1]
		}
		for _, s := range r.samples[lo:r.marks[to-1]] {
			if !sampleAux(s) {
				d = append(d, sampleDur(s))
			}
		}
	}
	slices.Sort(d)
	return d
}

// tailRoundPct picks the round whose tail is reported: the best decile.
// A neighbour on the box stretches the slowest ops of the rounds it hits
// far more than the control kernel can account for — the p99.9 of
// `concurrent` read 1 025 µs in a run whose best rounds read 300, as every
// round of a quiet run does — and it only ever makes a round slower.
const tailRoundPct = 10

// tail returns op_tail_us in ns and how it was taken: the highest
// percentile that leaves ten samples of one round beyond it, in the
// tailRoundPct-th best round; or, where a round is too short to have a
// tail of its own (recovery: 5 ops), that percentile of the whole run.
func (p *pass) tail(all []int64) (int64, string) {
	pct := tailPercentile(len(all) / p.rounds)
	if pct <= 50 {
		pct = tailPercentile(len(all))
		return percentile(all, pct), fmt.Sprintf("p%g of all %d samples", pct, len(all))
	}
	tails := make([]int64, p.rounds)
	for r := range tails {
		tails[r] = percentile(p.counted(r, r+1), pct)
	}
	slices.Sort(tails)
	return percentile(tails, tailRoundPct), fmt.Sprintf("p%g of a round's %d samples, in the best decile of %d rounds",
		pct, len(all)/p.rounds, p.rounds)
}

// outcome adds up the pass's attempts and failures.
func (p *pass) outcome() (attempted, failed int64, first string) {
	for _, r := range p.recs {
		attempted += r.attempted
		failed += r.failed
		if first == "" {
			first = r.firstFail
		}
	}
	return
}

// closing is what closeOut learns from a measured instance on its way out.
type closing struct {
	heapMB       float64           // fs_heap_mb
	sb           layout.Superblock // the shapes the layout kernels need
	usedOverLive float64           // bytes of non-clean segments per live byte
	attempted    int64
	failed       int64
	first        string
}

// closeOut runs the post-run checks of a measured instance — read-back,
// fs.Check — and measures the file system's heap footprint, unmounting
// it on the way.
func closeOut(w workload) closing {
	rec := newRecorder(time.Now(), false, 0)
	w.finish(rec)
	var c closing
	if fs := w.mounted(); fs == nil {
		rec.fail("no file system left mounted")
	} else {
		c.sb = fs.Superblock()
		var live float64
		for _, u := range fs.SegmentUtilizations() {
			live += u
		}
		c.usedOverLive = ratio(float64(int(fs.NumSegments())-fs.CleanSegments()), live)
		rep, err := fs.Check()
		rec.check(err == nil, fmt.Sprintf("fs.Check: %v", err))
		if rep != nil {
			for _, problem := range rep.Problems {
				rec.check(false, "fs.Check: "+problem)
			}
		}
		c.heapMB = heapFootprint(w, rec)
	}
	c.attempted, c.failed, c.first = rec.attempted, rec.failed, rec.firstFail
	return c
}

// heapFootprint is HeapAlloc with the file system mounted minus HeapAlloc
// after Unmount and dropping it, in MiB. The disk image is live in both
// readings and cancels.
func heapFootprint(w workload, rec *recorder) float64 {
	fs, dev := w.mounted(), w.device()
	// Sync first so that no staged block changes sides (FS memory before
	// Unmount, disk image after) between the two readings.
	rec.check(fs.Sync() == nil, "sync before heap measurement")
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	with := ms.HeapAlloc
	rec.check(fs.Unmount() == nil, "unmount")
	fs = nil
	w.release()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(dev)
	return (float64(with) - float64(ms.HeapAlloc)) / (1 << 20)
}

// runUntraced is the `--trace 0` run: it sets the workload up
// setupRepeats times, measures the last instance with no tracer
// attached, and returns every end-to-end metric.
func runUntraced(cfg config) (*result, error) {
	var setups []float64
	var w workload
	repeats := setupRepeats
	if cfg.quick {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if w != nil {
			if err := discard(w); err != nil {
				return nil, err
			}
		}
		var s float64
		var err error
		if w, s, err = instance(cfg, nil); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	p := runRounds(w, cfg.fixedRounds(), cfg.seconds, false, nil)
	lat := p.counted(0, p.rounds)
	ops := float64(len(lat))
	res := &result{Workload: cfg.workload, Seed: cfg.seed}
	res.add(p.outcome())
	end := closeOut(w)
	res.add(end.attempted, end.failed, end.first)
	tailNs, tailHow := p.tail(lat)
	rate := ops / p.wall.Seconds()
	p50, tail := float64(percentile(lat, 50))/1e3, float64(tailNs)/1e3
	cpu := float64(p.cpu.Nanoseconds()) / 1e3 / ops
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d rounds, %d ops in %.2f s; op_tail_us is %s", p.rounds, len(lat), p.wall.Seconds(), tailHow),
		p.control,
		fmt.Sprintf("as measured, before division by that: ops_per_s %.6g, op_p50_us %.6g, op_tail_us %.6g, cpu_us_per_op %.6g",
			rate, p50, tail, cpu))
	kb := float64(layout.BlockSize) / 1024
	res.Metrics = []measurement{
		{"setup_s", median(setups), "s"},
		// The four host-time metrics of the measured section are reported
		// at reference speed (control.go).
		{"ops_per_s", rate * p.slowdown, "1/s"},
		{"op_p50_us", p50 / p.slowdown, "us"},
		{"op_tail_us", tail / p.slowdown, "us"},
		{"cpu_us_per_op", cpu / p.slowdown, "us"},
		{"allocs_per_op", float64(p.mallocs) / ops, "count"},
		{"fs_heap_mb", end.heapMB, "MiB"},
		{"sim_ms_per_op", float64(p.dev.BusyTime.Nanoseconds()) / 1e6 / ops, "ms"},
		{"write_cost", p.fs.WriteCost(), "ratio"},
		{"dev_write_kb_per_op", float64(p.dev.BlocksWritten) * kb / ops, "KiB"},
		{"dev_read_kb_per_op", float64(p.dev.BlocksRead) * kb / ops, "KiB"},
	}
	return res, nil
}
