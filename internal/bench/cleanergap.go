package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/cleansim"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/layout"
)

// The cleaner-gap experiment drives core.FS and cleansim with one
// hot-and-cold overwrite trace (ROADMAP item 2): the disk is the
// repository benchmark's hotcold disk — 256 segments' worth of blocks,
// one-block files filling 75 % of the segment area, 90 % of the writes to
// the first 10 % of the files, rounds of whole-file overwrites ending in a
// Sync — and file i of the simulator is file i of the file system.

// gapScale is the size of one run. Rounds and file counts follow the
// segment size, so the number of cleaning cycles in a round — what sets
// the benchmark's p99.9 — is the same at every scale.
type gapScale struct {
	segBlocks      int
	warm, perRound int // overwrites before measuring, and per measured round
	rounds         int
}

func (c Config) gapScale() gapScale {
	if c.Quick {
		// Below 64-block segments the file system's per-flush overheads
		// outgrow anything cleansim models and the two part ways.
		return gapScale{segBlocks: 64, warm: 15000, perRound: 10000, rounds: 3}
	}
	return gapScale{segBlocks: 128, warm: 50000, perRound: 20000, rounds: 15}
}

// gapMarks is one cleaner sizing; zeroes take the defaults.
type gapMarks struct{ low, high, batch int }

var (
	gapDefaults = gapMarks{}
	gapBefore   = gapMarks{16, 32, 8} // the defaults up to PR 20
	gapPattern  = cleansim.HotCold{HotFiles: 0.1, HotAccesses: 0.9}
)

// gapResult is what one side of the harness measured.
type gapResult struct {
	writeCost float64
	cleanedU  float64     // mean over cleaned segments, empty ones included
	hist      [10]float64 // share of the segments holding data, by utilisation decile
}

// gapCore adds what only the real file system has.
type gapCore struct {
	gapResult
	opts               core.Options // as completed by withDefaults
	trace              []int32      // the overwrites replayed, warm-up included
	nsegs, files       int
	nominal, effective float64 // utilisation: data ÷ segment area; live bytes of every kind ÷ effSegs segments
	effSegs            int     // segments writers may fill before cleaning starts: all but CleanLowWater
	st                 core.Stats
	dev                disk.Stats // the device's activity over the measured rounds
	cleanOps           int        // ops that ran a pass or a checkpoint, in the worst round
}

// hotColdTrace is the overwrite sequence both sides replay.
func hotColdTrace(seed int64, nfiles, n int) []int32 {
	rng := rand.New(rand.NewSource(seed))
	trace := make([]int32, n)
	for i := range trace {
		trace[i] = int32(gapPattern.Pick(rng, nfiles))
	}
	return trace
}

// replay is the cleansim.Pattern that plays a recorded trace back.
type replay struct {
	trace []int32
	next  int
}

func (r *replay) Pick(*rand.Rand, int) int {
	f := r.trace[r.next%len(r.trace)]
	r.next++
	return int(f)
}

func (*replay) Name() string { return "replayed trace" }

// runGapCore fills a fresh file system built with opts (the segment size
// and inode count are the scale's), replays the trace and measures the
// rounds after the warm-up.
func runGapCore(sc gapScale, opts core.Options, seed int64) (*gapCore, error) {
	d := disk.MustNew(disk.DefaultGeometry(int64(256 * sc.segBlocks)))
	opts.SegmentBlocks, opts.MaxInodes = sc.segBlocks, 1024*sc.segBlocks
	fs, err := core.Format(d, opts)
	if err != nil {
		return nil, err
	}
	// The committer goroutine keeps an FS that is not unmounted, and its
	// disk, reachable: a sweep of these would hold every disk at once.
	defer fs.Unmount()
	r := &gapCore{opts: fs.Options(), nsegs: int(fs.NumSegments())}
	r.files = int(0.75 * float64(r.nsegs*sc.segBlocks))
	paths := make([]string, r.files)
	for i := range paths {
		if i%96 == 0 {
			if err := fs.Mkdir(fmt.Sprintf("/d%03d", i/96)); err != nil {
				return nil, err
			}
		}
		paths[i] = fmt.Sprintf("/d%03d/f%05d", i/96, i)
	}
	payload := make([]byte, layout.BlockSize)
	write := func(f int32) error {
		payload[0]++
		return fs.WriteFile(paths[f], payload)
	}
	for i := range paths {
		if err := write(int32(i)); err != nil {
			return nil, err
		}
	}
	r.trace = hotColdTrace(seed, r.files, sc.warm+sc.rounds*sc.perRound)
	for _, f := range r.trace[:sc.warm] {
		if err := write(f); err != nil {
			return nil, err
		}
	}
	if err := fs.Sync(); err != nil {
		return nil, err
	}
	fs.ResetStats()
	devBefore := d.Stats()
	var samples float64
	for round := 0; round < sc.rounds; round++ {
		start := sc.warm + round*sc.perRound
		cleanOps, work := 0, int64(0)
		for _, f := range r.trace[start : start+sc.perRound] {
			if err := write(f); err != nil {
				return nil, err
			}
			st := fs.Stats()
			if w := st.CleaningPasses + st.Checkpoints; w != work {
				work = w
				cleanOps++
			}
		}
		if err := fs.Sync(); err != nil {
			return nil, err
		}
		r.cleanOps = max(r.cleanOps, cleanOps)
		// The histogram is sampled at the end of every round, over the
		// segments that hold data: not the clean and evacuated ones, and
		// not the head or the segment chosen to follow it.
		counts := fs.SegmentCounts()
		idle := counts.Free + counts.Pending
		for seg, u := range fs.SegmentUtilizations() {
			if int64(seg) == counts.Head || int64(seg) == counts.Next {
				continue
			}
			if u == 0 && idle > 0 {
				idle--
				continue
			}
			r.hist[min(int(u*10), 9)]++
			samples++
		}
	}
	for i := range r.hist {
		r.hist[i] /= samples
	}
	st := fs.Stats()
	r.st, r.dev = st, d.Stats().Sub(devBefore)
	r.writeCost = st.WriteCost()
	if st.SegmentsCleaned > 0 {
		r.cleanedU = st.CleanedUtilSum / float64(st.SegmentsCleaned)
	}
	live, err := fs.LiveBytesByKind()
	if err != nil {
		return nil, err
	}
	var liveBytes int64
	for _, b := range live {
		liveBytes += b
	}
	r.effSegs = r.nsegs - r.opts.CleanLowWater
	r.nominal = float64(r.files) / float64(r.nsegs*sc.segBlocks)
	r.effective = float64(liveBytes) / float64(int64(r.effSegs)*fs.SegmentBytes())
	return r, nil
}

// runGapSim runs cleansim over the same number of overwrites. With
// effective false it is given the file system's nominal disk and replays
// the trace itself; with effective true it is given the disk the real
// cleaner works on — the segments writers may fill, as full as every kind
// of live block makes them, refilled by one cycle's worth — where the extra
// blocks are extra files of the same hot-and-cold pattern and seed.
func runGapSim(sc gapScale, c *gapCore, seed int64, effective bool) (gapResult, error) {
	cfg := cleansim.Config{
		NumSegments: c.nsegs, SegmentBlocks: sc.segBlocks,
		// Just above files/capacity, so that truncation gives the file
		// system's own file count back.
		DiskUtilization: (float64(c.files) + 0.5) / float64(c.nsegs*sc.segBlocks),
		CleanTarget:     c.opts.CleanHighWater - c.opts.CleanLowWater,
		Policy:          cleansim.CostBenefit, AgeSort: !c.opts.NoAgeSort, Seed: seed,
		Pattern: &replay{trace: c.trace},
	}
	if c.opts.Policy == core.PolicyGreedy {
		cfg.Policy = cleansim.Greedy
	}
	if effective {
		cfg.NumSegments, cfg.DiskUtilization = c.effSegs, c.effective
		cfg.Pattern = gapPattern
	}
	capacity := float64(cfg.NumSegments * sc.segBlocks)
	cfg.WarmupWrites = float64(sc.warm) / capacity
	cfg.MeasureWrites = float64(sc.rounds*sc.perRound) / capacity
	res, err := cleansim.Run(cfg)
	if err != nil {
		return gapResult{}, err
	}
	out := gapResult{writeCost: res.WriteCost, cleanedU: res.AvgCleanedUtilization}
	for i, v := range res.UtilizationHistogram {
		out.hist[i*10/cleansim.Bins] += v
	}
	return out, nil
}

func (h gapResult) histString() string {
	cells := make([]string, len(h.hist))
	for i, v := range h.hist {
		cells[i] = fmt.Sprintf("%.0f", v*100)
	}
	return strings.Join(cells, " ")
}

// RunCleanerGap reports core.FS beside cleansim on the hotcold disk: at the
// defaults and at the marks they replaced, under both policies, then (full
// scale only) the sweep of marks and batch the defaults were chosen from.
func RunCleanerGap(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	sc := cfg.gapScale()
	t := &Table{
		ID:    "cleaner-gap",
		Title: "core.FS vs cleansim on one hot-and-cold trace (the benchmark's hotcold disk)",
		Columns: []string{"low/high/batch", "policy", "u nominal", "u effective", "write cost", "cleansim @effective",
			"cleansim @nominal", "cleaned u", "cleansim", "passes", "checkpoints", "cleaning ops/round"},
	}
	type cell struct {
		m      gapMarks
		policy core.CleaningPolicy
	}
	cells := []cell{{gapBefore, core.PolicyCostBenefit}, {gapDefaults, core.PolicyCostBenefit}}
	if !cfg.Quick {
		cells = append(cells, cell{gapBefore, core.PolicyGreedy}, cell{gapDefaults, core.PolicyGreedy})
		for _, m := range []gapMarks{
			{16, 32, 24}, {10, 32, 24}, {10, 24, 8}, {10, 24, 16}, {10, 24, 32},
			{10, 20, 20}, {10, 16, 16}, {10, 24, 4},
		} {
			cells = append(cells, cell{m, core.PolicyCostBenefit})
		}
	}
	var files int
	for _, c := range cells {
		// The cleaner reads victims whole, as cleansim and formula (1) assume.
		fsr, err := runGapCore(sc, core.Options{Policy: c.policy, CleanLowWater: c.m.low, CleanHighWater: c.m.high,
			CleanBatch: c.m.batch, CleanRead: core.CleanReadWhole}, cfg.Seed)
		if err != nil {
			return nil, err
		}
		eff, err := runGapSim(sc, fsr, cfg.Seed, true)
		if err != nil {
			return nil, err
		}
		nom, err := runGapSim(sc, fsr, cfg.Seed, false)
		if err != nil {
			return nil, err
		}
		o := fsr.opts
		files = fsr.files
		t.AddRow(fmt.Sprintf("%d/%d/%d", o.CleanLowWater, o.CleanHighWater, o.CleanBatch), c.policy.String(),
			fmt.Sprintf("%.3f", fsr.nominal), fmt.Sprintf("%.3f", fsr.effective),
			fmt.Sprintf("%.2f", fsr.writeCost), fmt.Sprintf("%.2f", eff.writeCost), fmt.Sprintf("%.2f", nom.writeCost),
			fmt.Sprintf("%.3f", fsr.cleanedU), fmt.Sprintf("%.3f", eff.cleanedU),
			fmt.Sprintf("%d", fsr.st.CleaningPasses), fmt.Sprintf("%d", fsr.st.Checkpoints), fmt.Sprintf("%d", fsr.cleanOps))
		if c.m == gapDefaults || c.m == gapBefore {
			t.AddNote("%s %s, segments by utilisation decile (%%): core.FS %s | cleansim @effective %s",
				t.Rows[len(t.Rows)-1][0], c.policy, fsr.histString(), eff.histString())
		}
	}
	t.AddNote("u effective = live bytes of every kind ÷ the segments writers may fill before cleaning starts (all but CleanLowWater); cleansim @effective is given that disk, refilled by high − low segments per cycle")
	t.AddNote("%d files of one block on %d-block segments; %d warm-up overwrites, then %d rounds of %d + Sync; cleaning ops/round is the worst round's count of operations that ran a pass or a checkpoint (the benchmark's p99.9 needs it under 15)",
		files, sc.segBlocks, sc.warm, sc.rounds, sc.perRound)
	return t, nil
}
