package core

import (
	"time"

	"repro/internal/disk"
	"repro/internal/obs"
)

var noopTimer = func() {}

// readerEnter tracks one in-flight read-only operation for the reader
// concurrency gauges. Pair with readerExit: fs.readerEnter(); defer
// fs.readerExit(). A method pair rather than a returned closure so the
// cached-read path allocates nothing.
func (fs *FS) readerEnter() {
	n := fs.readersNow.Add(1)
	fs.tr.Add(obs.CtrReadersActive, 1)
	fs.tr.SetMax(obs.CtrReadersPeak, n)
}

// readerExit is readerEnter's other half.
func (fs *FS) readerExit() {
	fs.readersNow.Add(-1)
	fs.tr.Add(obs.CtrReadersActive, -1)
}

// traceOp times one public operation in simulated disk time and records
// it in the op.<name> latency histogram (plus an fs.op event when a
// sink is attached). Use as: defer fs.traceOp("create")().
func (fs *FS) traceOp(name string) func() {
	if fs.tr == nil {
		return noopTimer
	}
	start := fs.dev.Stats().BusyTime
	return func() {
		lat := fs.dev.Stats().BusyTime - start
		fs.tr.Observe(obs.OpHistPrefix+name, lat)
		if fs.tr.Tracing() {
			fs.tr.Emit(obs.Event{
				Kind: obs.KindFSOp,
				Op:   &obs.FSOp{Name: name, Latency: lat},
			})
		}
	}
}

// phaseMeter attributes a recovery's device activity to its phases: each
// end publishes what the device did since the previous one under
// <prefix><phase>.{reads,blocks,sim_us}. It starts before the first device
// request, which is before there is an FS to hang it on.
type phaseMeter struct {
	dev    *disk.Disk
	tr     *obs.Tracer
	prefix string
	last   disk.Stats
}

func startPhases(dev *disk.Disk, tr *obs.Tracer, prefix string) *phaseMeter {
	if tr == nil {
		return nil
	}
	return &phaseMeter{dev: dev, tr: tr, prefix: prefix, last: dev.Stats()}
}

func (m *phaseMeter) end(phase string) {
	if m == nil {
		return
	}
	now := m.dev.Stats()
	d := now.Sub(m.last)
	m.last = now
	m.tr.Add(m.prefix+phase+".reads", d.ReadOps)
	m.tr.Add(m.prefix+phase+".blocks", d.BlocksRead)
	m.tr.Add(m.prefix+phase+".sim_us", int64(d.BusyTime/time.Microsecond))
}
