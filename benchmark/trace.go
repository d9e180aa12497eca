package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/layout"
	"repro/internal/obs"
	"repro/lfs"
)

// The traced run measures the layers from outside: op spans recorded by
// the driver around each lfs call, plus the file system's own obs events
// stamped with host time by a passive sink the benchmark owns. Nothing
// inside the program is changed to produce them.

type evKind uint8

const (
	evDisk evKind = iota
	evLog
	evCheckpoint
	evRollForward
	evCandidate
	evPass
)

var evNames = [...]string{"disk.io", "log.write", "checkpoint", "recovery.rollforward", "cleaner.candidate", "cleaner.pass"}

// event is one obs event, flattened, with the host time it arrived at.
type event struct {
	host int64         // ns since the pass's base
	sim  time.Duration // the event's own simulated-time stamp
	kind evKind
	// disk.io
	write, seq      bool
	addr            int64
	blocks          int64 // disk.io and log.write: blocks; cleaner.pass: segments; rollforward: writes
	seek, rot, xfer time.Duration
	cost            int64 // disk.io: host ns of the replayed request
	parent          int   // span id of the containing op, 0 if none
}

func (e *event) simTotal() time.Duration { return e.seek + e.rot + e.xfer }

// hostSink is the benchmark's lfs.TraceSink. Events arrive under the
// emitter's locks, so Emit only stamps, flattens and appends.
type hostSink struct {
	mu    sync.Mutex
	base  time.Time
	evs   []event
	fsOps atomic.Int64 // fs.op events: counted, not kept (the driver's spans cover them)
}

func (s *hostSink) Emit(e lfs.TraceEvent) {
	ev := event{sim: e.T}
	switch {
	case e.Disk != nil:
		ev.kind, ev.write, ev.seq = evDisk, e.Disk.Op == "write", e.Disk.Sequential
		ev.addr, ev.blocks = e.Disk.Addr, int64(e.Disk.Blocks)
		ev.seek, ev.rot, ev.xfer = e.Disk.Seek, e.Disk.Rotation, e.Disk.Transfer
	case e.Log != nil:
		ev.kind, ev.addr, ev.blocks = evLog, e.Log.Addr, int64(e.Log.Blocks)
	case e.Checkpoint != nil:
		ev.kind = evCheckpoint
	case e.RollForward != nil:
		ev.kind, ev.blocks = evRollForward, e.RollForward.Writes
	case e.Candidate != nil:
		ev.kind, ev.addr = evCandidate, e.Candidate.Seg
	case e.Pass != nil:
		ev.kind, ev.blocks = evPass, int64(e.Pass.SegmentsIn)
	default:
		s.fsOps.Add(1)
		return
	}
	s.mu.Lock()
	ev.host = int64(time.Since(s.base))
	s.evs = append(s.evs, ev)
	s.mu.Unlock()
}

// opSpan is one timed lfs call of one client.
type opSpan struct {
	start, end int64
	kind       opKind
	aux        bool
}

func (r *recorder) spans() []opSpan {
	out := make([]opSpan, len(r.samples))
	for i, s := range r.samples {
		out[i] = opSpan{r.starts[i], r.starts[i] + sampleDur(s), sampleKind(s), sampleAux(s)}
	}
	return out
}

// opClass says what the slowest thing inside an op was. An op counts
// once, in the order clean > checkpoint > flush > fastpath.
type opClass uint8

const (
	classFastpath   opClass = iota // no log write: namei, staging, cached or single-block device reads
	classFlush                     // contains a log.write
	classCheckpoint                // contains a checkpoint
	classClean                     // contains a cleaner.pass
	numClasses
)

// opAttr is what an op's interval contains.
type opAttr struct {
	class    opClass
	first, n int           // its child events are evs[first : first+n]
	sim      time.Duration // simulated time of its device requests
	devReads int
	devCost  int64 // replayed host ns of its device requests
}

// contain attributes events to one client's ops by time containment: an
// event is the child of the op whose [start, end] holds its host stamp.
// ops must be in start order and must not overlap; evs in host order.
func contain(ops []opSpan, evs []event) []opAttr {
	attrs := make([]opAttr, len(ops))
	j := 0
	for i, op := range ops {
		for j < len(evs) && evs[j].host < op.start {
			j++
		}
		a := &attrs[i]
		a.first = j
		for ; j < len(evs) && evs[j].host <= op.end; j++ {
			e := &evs[j]
			switch e.kind {
			case evDisk:
				a.sim += e.simTotal()
				a.devCost += e.cost
				if !e.write {
					a.devReads++
				}
			case evLog:
				a.class = max(a.class, classFlush)
			case evCheckpoint:
				a.class = max(a.class, classCheckpoint)
			case evPass:
				a.class = classClean
			}
		}
		a.n = j - a.first
	}
	return attrs
}

// traced is everything the traced pass produced, ready for the layers.
type traced struct {
	name  string
	pass  *pass
	evs   []event
	ops   [][]opSpan // per client
	attrs [][]opAttr
	snap  lfs.MetricsSnapshot
}

// runTraced is the `--trace 1` run. It splits the time three ways over
// the same script: an untraced reference pass that fixes the round count,
// a pass with a tracer but no sink, and the pass with the benchmark's
// sink attached that every per-layer metric comes from.
func runTraced(cfg config) (*result, error) {
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Trace: true}
	count := func(p *pass) { res.add(p.outcome()) }
	w, _, err := instance(cfg, nil)
	if err != nil {
		return nil, err
	}
	ref := runRounds(w, cfg.fixedRounds(), cfg.seconds/3, false, nil)
	count(ref)
	if err := discard(w); err != nil {
		return nil, err
	}

	tr := lfs.NewTracer(nil)
	if w, _, err = instance(cfg, tr); err != nil {
		return nil, err
	}
	quiet := runRounds(w, ref.rounds, 0, false, func(time.Time) { tr.ResetMetrics() })
	count(quiet)
	if err := discard(w); err != nil {
		return nil, err
	}

	sink := &hostSink{}
	tr = lfs.NewTracer(nil)
	if w, _, err = instance(cfg, tr); err != nil {
		return nil, err
	}
	geo := w.device().Geometry()
	dirEntries := w.dirEntries()
	t := &traced{name: cfg.workload}
	t.pass = runRounds(w, ref.rounds, 0, true, func(base time.Time) {
		sink.base = base
		tr.ResetMetrics()
		tr.SetSink(sink)
	})
	tr.SetSink(nil)
	count(t.pass)
	t.evs, t.snap = sink.evs, tr.Metrics()
	events := float64(len(t.evs)) + float64(sink.fsOps.Load())
	end := closeOut(w)
	res.add(end.attempted, end.failed, end.first)

	batch := kernelBatch
	if cfg.quick {
		batch /= 20
	}
	calib := calibrate(batch)
	replayDisk(geo, t.evs, calib.timerNs)
	for _, r := range t.pass.recs {
		ops := r.spans()
		t.ops = append(t.ops, ops)
		t.attrs = append(t.attrs, contain(ops, t.evs))
	}
	t.setParents()

	for _, problem := range crossCheck(t, ref) {
		res.add(1, 1, "cross-check: "+problem)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%d rounds per pass: untraced %.2f s, tracer without sink %.2f s, traced %.2f s; %d events",
		ref.rounds, ref.wall.Seconds(), quiet.wall.Seconds(), t.pass.wall.Seconds(), int(events)),
		"traced pass: "+t.pass.control+"; per-layer times are as measured, not divided by it")

	res.Metrics = append(res.Metrics, lfsLayer(t)...)
	res.Metrics = append(res.Metrics, coreLayer(t, end)...)
	res.Metrics = append(res.Metrics, diskLayer(t)...)
	res.Metrics = append(res.Metrics, layoutLayer(t, end.sb, dirEntries, batch)...)
	res.Metrics = append(res.Metrics, bufpoolLayer(batch)...)
	res.Metrics = append(res.Metrics,
		measurement{"obs.trace_overhead_share", ratio(t.pass.wall.Seconds(), ref.wall.Seconds()) - 1, "ratio"},
		measurement{"obs.metrics_only_overhead_share", ratio(quiet.wall.Seconds(), ref.wall.Seconds()) - 1, "ratio"},
		measurement{"obs.events_per_op", ratio(events, float64(t.countedOps())), "count"},
		measurement{"calib.crc4k_ns", calib.crcNs, "ns"},
		measurement{"calib.memcpy4k_ns", calib.memcpyNs, "ns"},
		measurement{"calib.timer_ns", calib.timerNs, "ns"},
		measurement{"calib.slowdown", t.pass.slowdown, "ratio"},
	)

	if cfg.traceDir != "" {
		path := filepath.Join(cfg.traceDir, "trace-"+cfg.workload+".jsonl")
		if err := t.write(path); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		res.Notes = append(res.Notes, "spans written to "+path)
	}
	return res, nil
}

// logWrites counts the pass's log.write events and the blocks they wrote.
func (t *traced) logWrites() (flushes, blocks float64) {
	for i := range t.evs {
		if e := &t.evs[i]; e.kind == evLog {
			flushes++
			blocks += float64(e.blocks)
		}
	}
	return
}

func (t *traced) countedOps() int {
	n := 0
	for _, ops := range t.ops {
		for _, op := range ops {
			if !op.aux {
				n++
			}
		}
	}
	return n
}

// Span ids: 0 is the run, then every client's ops in order, then events.
func (t *traced) opID(client, i int) int {
	id := 1 + i
	for c := 0; c < client; c++ {
		id += len(t.ops[c])
	}
	return id
}

// setParents gives each event the lowest-numbered client's op that
// contains it. With one client that is the op that caused it; with two,
// an event both clients' ops span is listed under the first only (the
// wall shares still charge it to both — each was held up by it).
func (t *traced) setParents() {
	for c := len(t.attrs) - 1; c >= 0; c-- {
		for i, a := range t.attrs[c] {
			for k := a.first; k < a.first+a.n; k++ {
				t.evs[k].parent = t.opID(c, i)
			}
		}
	}
}

// crossCheck compares the event stream with the program's own counters,
// and the traced pass with the untraced one. Any difference fails the run.
func crossCheck(t *traced, ref *pass) []string {
	var problems []string
	var seek, rot, xfer time.Duration
	var logWrites, passSegs int64
	for i := range t.evs {
		switch e := &t.evs[i]; e.kind {
		case evDisk:
			seek, rot, xfer = seek+e.seek, rot+e.rot, xfer+e.xfer
		case evLog:
			logWrites++
		case evPass:
			passSegs += e.blocks
		}
	}
	dev, fs := t.pass.dev, t.pass.fs
	if seek != dev.SeekTime || rot != dev.RotationTime || xfer != dev.TransferTime || seek+rot+xfer != dev.BusyTime {
		problems = append(problems, fmt.Sprintf("disk.io events sum to seek %v rot %v xfer %v, device says %v %v %v busy %v",
			seek, rot, xfer, dev.SeekTime, dev.RotationTime, dev.TransferTime, dev.BusyTime))
	}
	if logWrites != fs.PartialWrites {
		problems = append(problems, fmt.Sprintf("%d log.write events, Stats.PartialWrites %d", logWrites, fs.PartialWrites))
	}
	if passSegs != fs.SegmentsCleaned {
		problems = append(problems, fmt.Sprintf("cleaner.pass events cover %d segments, Stats.SegmentsCleaned %d", passSegs, fs.SegmentsCleaned))
	}
	// One client and an inline cleaner make the simulated side repeat: the
	// sink may cost host time but must not change a single device request.
	// Seek time is compared loosely because mount and salvage visit some
	// blocks in Go map order, which moves a seek or two between runs.
	if t.pass.w.clients() == 1 {
		u := ref.dev
		seekDiff := float64(dev.SeekTime - u.SeekTime)
		if dev.ReadOps != u.ReadOps || dev.WriteOps != u.WriteOps || dev.BlocksRead != u.BlocksRead ||
			dev.BlocksWritten != u.BlocksWritten || dev.RotationTime != u.RotationTime ||
			dev.TransferTime != u.TransferTime || seekDiff*seekDiff > 1e-6*float64(u.SeekTime)*float64(u.SeekTime) {
			problems = append(problems, fmt.Sprintf("traced device counters %+v differ from untraced %+v", dev, u))
		}
		if fs.NewDataBytes != ref.fs.NewDataBytes || fs.SummaryBytes != ref.fs.SummaryBytes ||
			fs.CleanerReadBytes != ref.fs.CleanerReadBytes || fs.CleanerWriteBytes != ref.fs.CleanerWriteBytes ||
			fs.PartialWrites != ref.fs.PartialWrites || fs.SegmentsCleaned != ref.fs.SegmentsCleaned ||
			fs.Checkpoints != ref.fs.Checkpoints {
			problems = append(problems, fmt.Sprintf("traced fs counters %+v differ from untraced %+v", fs, ref.fs))
		}
	}
	return problems
}

// ---- lfs layer ----

func lfsLayer(t *traced) []measurement {
	var durs [numOps][]int64
	var wall, sim [numOps]float64
	var total float64
	for c, ops := range t.ops {
		for i, op := range ops {
			d := op.end - op.start
			durs[op.kind] = append(durs[op.kind], d)
			wall[op.kind] += float64(d)
			sim[op.kind] += float64(t.attrs[c][i].sim)
			total += float64(d)
		}
	}
	var out []measurement
	for k := opKind(0); k < numOps; k++ {
		slices.Sort(durs[k])
		n := float64(len(durs[k]))
		pre := "lfs." + opNames[k] + "."
		out = append(out,
			measurement{pre + "count", n, "count"},
			measurement{pre + "p50_us", float64(percentile(durs[k], 50)) / 1e3, "us"},
			measurement{pre + "tail_us", float64(percentile(durs[k], tailPercentile(len(durs[k])))) / 1e3, "us"},
			measurement{pre + "wall_share", ratio(wall[k], total), "ratio"},
			measurement{pre + "sim_ms_per_op", ratio(sim[k], n) / 1e6, "ms"},
		)
	}
	return out
}

// ---- core layer ----

func coreLayer(t *traced, end closing) []measurement {
	var classWall [numClasses]float64
	var total float64
	var reads, readHits float64
	for c, ops := range t.ops {
		for i, op := range ops {
			a := t.attrs[c][i]
			d := float64(op.end - op.start)
			classWall[a.class] += d
			total += d
			if op.kind == opRead {
				reads++
				if a.devReads == 0 {
					readHits++
				}
			}
		}
	}

	// A cleaning pass runs from the first candidate of the batch that
	// precedes it (candidates of one batch arrive back to back) to its
	// cleaner.pass event.
	var passNs []int64
	var rollSim, rolls float64
	flushes, logBlocks := t.logWrites()
	batchStart, prevCandidate := int64(0), false
	for i := range t.evs {
		e := &t.evs[i]
		if e.kind == evCandidate {
			if !prevCandidate {
				batchStart = e.host
			}
			prevCandidate = true
			continue
		}
		prevCandidate = false
		switch e.kind {
		case evPass:
			passNs = append(passNs, e.host-batchStart)
		case evRollForward:
			rolls++
			rollSim += float64(e.sim)
		}
	}
	slices.Sort(passNs)

	fs := t.pass.fs
	logTotal := float64(fs.LogBytesTotal())
	share := func(k layout.BlockKind) float64 { return ratio(float64(fs.LogBytesByKind[k]), logTotal) }
	mb := func(b int64) float64 { return float64(b) / (1 << 20) }
	return []measurement{
		{"core.fastpath_wall_share", ratio(classWall[classFastpath], total), "ratio"},
		{"core.flush_wall_share", ratio(classWall[classFlush], total), "ratio"},
		{"core.clean_wall_share", ratio(classWall[classClean], total), "ratio"},
		{"core.checkpoint_wall_share", ratio(classWall[classCheckpoint], total), "ratio"},
		{"core.cleaner.pass_p50_ms", float64(percentile(passNs, 50)) / 1e6, "ms"},
		{"core.log.flushes", flushes, "count"},
		{"core.log.blocks_per_flush", ratio(logBlocks, flushes), "count"},
		{"core.log.share.data", share(layout.KindData), "ratio"},
		{"core.log.share.indirect", share(layout.KindIndirect), "ratio"},
		{"core.log.share.inode", share(layout.KindInode), "ratio"},
		{"core.log.share.imap", share(layout.KindImap), "ratio"},
		{"core.log.share.segusage", share(layout.KindSegUsage), "ratio"},
		{"core.log.share.dirlog", share(layout.KindDirLog), "ratio"},
		{"core.log.share.summary", ratio(float64(fs.SummaryBytes), logTotal), "ratio"},
		{"core.cleaner.passes", float64(fs.CleaningPasses), "count"},
		{"core.cleaner.segments", float64(fs.SegmentsCleaned), "count"},
		{"core.cleaner.empty_share", fs.EmptyCleanedFraction(), "ratio"},
		{"core.cleaner.avg_util", fs.AvgCleanedUtil(), "ratio"},
		{"core.cleaner.read_mb", mb(fs.CleanerReadBytes), "MiB"},
		{"core.cleaner.write_mb", mb(fs.CleanerWriteBytes), "MiB"},
		{"core.checkpoint.count", float64(fs.Checkpoints), "count"},
		{"core.commit.groups", float64(fs.GroupCommits), "count"},
		{"core.commit.syncs_per_group", ratio(float64(fs.GroupCommitSyncs), float64(fs.GroupCommits)), "count"},
		{"core.admit.wait_share", ratio(float64(fs.AdmitWaits), float64(fs.AdmitOps)), "ratio"},
		{"core.writer.stalls", float64(fs.WriterStalls), "count"},
		{"core.rcache.hit_share", ratio(readHits, reads), "ratio"},
		{"core.verify.blocks", float64(t.snap.Counter(obs.CtrVerifiedBlocks)), "count"},
		{"core.recovery.rollforward_writes", float64(fs.RollForwardWrites), "count"},
		{"core.recovery.sim_ms_per_mount", ratio(rollSim, rolls) / 1e6, "ms"},
		{"core.space.used_over_live", end.usedOverLive, "ratio"},
	}
}

// ---- trace file ----

// traceFileRounds is how many rounds' spans the trace file holds. The
// metrics use every span; the file is for reading, and two rounds of a
// million-op pass are as much as anyone reads.
const traceFileRounds = 2

// write stores the spans of the first traceFileRounds rounds, one JSON
// object per line: {id, name, start, end, parent, op_id} in ns since the
// pass began, plus sim_ns/self_ns on ops with device requests and
// addr/blocks/sim_ns/host_ns on disk.io.
func (t *traced) write(path string) error {
	cutoff := t.pass.ends[min(traceFileRounds, len(t.pass.ends))-1]
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	span := func(id int, name string, start, end int64, parent, opID int) {
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendInt(line, int64(id), 10)
		line = append(line, `,"name":"`...)
		line = append(line, name...)
		line = append(line, `","start":`...)
		line = strconv.AppendInt(line, start, 10)
		line = append(line, `,"end":`...)
		line = strconv.AppendInt(line, end, 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(parent), 10)
		line = append(line, `,"op_id":`...)
		line = strconv.AppendInt(line, int64(opID), 10)
	}
	field := func(name string, v int64) {
		line = append(line, `,"`...)
		line = append(line, name...)
		line = append(line, `":`...)
		line = strconv.AppendInt(line, v, 10)
	}
	flush := func() {
		line = append(line, '}', '\n')
		w.Write(line) // bufio keeps the first error; Flush reports it
	}

	span(0, "run."+t.name, t.pass.began, t.pass.began+int64(t.pass.wall), 0, 0)
	flush()
	for c, ops := range t.ops {
		for i, op := range ops {
			if op.start >= cutoff {
				break
			}
			id, a := t.opID(c, i), t.attrs[c][i]
			span(id, "lfs."+opNames[op.kind], op.start, op.end, 0, id)
			if c > 0 {
				field("client", int64(c))
			}
			if a.sim > 0 {
				field("sim_ns", int64(a.sim))
				// Self time: the op's duration less the replayed host
				// cost of the device requests it contains.
				field("self_ns", op.end-op.start-a.devCost)
			}
			flush()
		}
	}
	id := t.opID(len(t.ops)-1, len(t.ops[len(t.ops)-1]))
	for i := range t.evs {
		e := &t.evs[i]
		if e.host >= cutoff {
			break
		}
		span(id+i, evNames[e.kind], e.host, e.host, e.parent, e.parent)
		switch e.kind {
		case evDisk:
			field("addr", e.addr)
			field("blocks", e.blocks)
			field("sim_ns", int64(e.simTotal()))
			field("host_ns", e.cost)
			if e.write {
				field("write", 1)
			}
		case evLog:
			field("blocks", e.blocks)
		case evPass:
			field("segments", e.blocks)
		}
		flush()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
