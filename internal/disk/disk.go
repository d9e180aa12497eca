// Package disk implements a simulated block device with a mechanical
// disk time model patterned on the CDC Wren IV drive used in the LFS
// paper's evaluation (Rosenblum & Ousterhout, SOSP 1991, Section 5.1).
//
// The simulator charges every I/O with seek time, rotational latency and
// transfer time, detects sequential access (no seek, no rotational delay
// between back-to-back transfers), and accumulates per-device statistics
// so that benchmarks can report results in simulated disk time. Reporting
// in simulated time makes the results independent of the host machine and
// of Go garbage-collection pauses.
//
// The device also supports fail-stop fault injection (including torn
// multi-block writes) so that crash-recovery experiments can cut power at
// an arbitrary write.
package disk

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/obs"
)

// Common device errors.
var (
	// ErrOutOfRange reports an access beyond the end of the device.
	ErrOutOfRange = errors.New("disk: block address out of range")
	// ErrBadSize reports a buffer whose length is not a whole number of blocks.
	ErrBadSize = errors.New("disk: buffer not a multiple of the block size")
	// ErrCrashed reports an access to a device that has been crashed by
	// fault injection. Writes are lost; reads fail until Reopen.
	ErrCrashed = errors.New("disk: device crashed (fault injection)")
)

// Geometry describes the mechanical characteristics of the simulated
// drive. The zero value is not useful; use DefaultGeometry (Wren IV).
type Geometry struct {
	// BlockSize is the transfer unit in bytes.
	BlockSize int
	// NumBlocks is the device capacity in blocks.
	NumBlocks int64
	// MinSeek is the track-to-track seek time.
	MinSeek time.Duration
	// MaxSeek is the full-stroke seek time. Seeks are charged on a
	// square-root curve between MinSeek and MaxSeek, the usual model for
	// mechanical arms (acceleration-limited short seeks).
	MaxSeek time.Duration
	// RotationTime is the time for one full platter revolution.
	// Non-sequential accesses are charged half a revolution of
	// rotational latency on average.
	RotationTime time.Duration
	// BandwidthBytesPerSec is the sustained media transfer rate.
	BandwidthBytesPerSec float64
}

// DefaultGeometry returns the Wren IV model from the paper: 1.3 MB/s
// maximum transfer bandwidth and 17.5 ms average seek time, with a
// 3600 RPM spindle. The capacity is given by nblocks 4 KB blocks.
func DefaultGeometry(nblocks int64) Geometry {
	return Geometry{
		BlockSize: 4096,
		NumBlocks: nblocks,
		// With the square-root curve below, uniform random seeks
		// average minSeek + (maxSeek-minSeek)*2/3 = 4 + 20.25*2/3
		// = 17.5 ms, the paper's figure.
		MinSeek:              4 * time.Millisecond,
		MaxSeek:              24250 * time.Microsecond,
		RotationTime:         16667 * time.Microsecond, // 3600 RPM
		BandwidthBytesPerSec: 1.3e6,
	}
}

// Stats is a snapshot of accumulated device activity. All times are in
// simulated device time, not host time.
type Stats struct {
	ReadOps       int64         // read requests
	WriteOps      int64         // write requests
	BlocksRead    int64         // blocks transferred by reads
	BlocksWritten int64         // blocks transferred by writes
	Seeks         int64         // non-sequential repositionings
	SeekTime      time.Duration // time spent seeking
	RotationTime  time.Duration // time spent in rotational latency
	TransferTime  time.Duration // time spent transferring data
	BusyTime      time.Duration // total device busy time
}

// BytesRead returns the number of bytes transferred by read requests.
func (s Stats) BytesRead(blockSize int) int64 { return s.BlocksRead * int64(blockSize) }

// BytesWritten returns the number of bytes transferred by write requests.
func (s Stats) BytesWritten(blockSize int) int64 { return s.BlocksWritten * int64(blockSize) }

// Sub returns the difference s - t, field by field. It is useful for
// measuring the activity of a single benchmark phase.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		ReadOps:       s.ReadOps - t.ReadOps,
		WriteOps:      s.WriteOps - t.WriteOps,
		BlocksRead:    s.BlocksRead - t.BlocksRead,
		BlocksWritten: s.BlocksWritten - t.BlocksWritten,
		Seeks:         s.Seeks - t.Seeks,
		SeekTime:      s.SeekTime - t.SeekTime,
		RotationTime:  s.RotationTime - t.RotationTime,
		TransferTime:  s.TransferTime - t.TransferTime,
		BusyTime:      s.BusyTime - t.BusyTime,
	}
}

// Disk is a simulated block device. It is safe for concurrent use.
type Disk struct {
	mu   sync.Mutex
	geo  Geometry
	data [][]byte // lazily allocated; nil means all zero
	// cow marks blocks shared with a Snapshot: they are immutable and
	// must be replaced, not written in place. nil when the device has
	// never been snapshotted (the common case costs nothing).
	cow []bool

	head    int64 // block address following the last transfer
	primed  bool  // head position is meaningful
	stats   Stats
	crashed bool
	tr      *obs.Tracer

	// Fault injection: when writesLeft reaches zero the device crashes.
	// A negative count disables injection.
	writesLeft int64
	armed      bool

	// Media faults (fault.go): latent read errors and silent corruption.
	// Unlike the fail-stop state these survive Reopen.
	faults []*fault
}

// New creates a zero-filled simulated device with the given geometry.
func New(geo Geometry) (*Disk, error) {
	if geo.BlockSize <= 0 || geo.NumBlocks <= 0 {
		return nil, fmt.Errorf("disk: invalid geometry %+v", geo)
	}
	if geo.BandwidthBytesPerSec <= 0 {
		return nil, fmt.Errorf("disk: invalid bandwidth %v", geo.BandwidthBytesPerSec)
	}
	return &Disk{
		geo:        geo,
		data:       make([][]byte, geo.NumBlocks),
		writesLeft: -1,
	}, nil
}

// MustNew is New but panics on error; intended for tests and examples.
func MustNew(geo Geometry) *Disk {
	d, err := New(geo)
	if err != nil {
		panic(err)
	}
	return d
}

// Geometry returns the device geometry.
func (d *Disk) Geometry() Geometry { return d.geo }

// BlockSize returns the transfer unit in bytes.
func (d *Disk) BlockSize() int { return d.geo.BlockSize }

// NumBlocks returns the device capacity in blocks.
func (d *Disk) NumBlocks() int64 { return d.geo.NumBlocks }

// Stats returns a snapshot of the accumulated statistics.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// SetTracer attaches an observability tracer: every request emits one
// obs event with its seek/rotation/transfer breakdown, stamped with the
// device's accumulated busy time. Events are emitted while the device
// lock is held, so sinks must not call back into the device. A nil
// tracer detaches instrumentation.
func (d *Disk) SetTracer(tr *obs.Tracer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tr = tr
}

// ResetStats zeroes the accumulated statistics (the head position is kept).
func (d *Disk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// Snapshot is an immutable point-in-time image of a device's persisted
// contents. It can be turned into any number of independent devices with
// FromSnapshot; taking and instantiating snapshots is O(blocks) pointer
// copies, not data copies, because block contents are shared copy-on-write.
// Crash-point exploration clones one formatted image per crash point this
// way instead of re-running Format for every replay.
type Snapshot struct {
	geo  Geometry
	data [][]byte
}

// Geometry returns the geometry of the snapshotted device.
func (s *Snapshot) Geometry() Geometry { return s.geo }

// Snapshot captures the device's current persisted contents. The device
// remains usable: blocks shared with the snapshot are copied on their next
// write. Snapshots work on crashed devices too (they see persisted state).
func (d *Disk) Snapshot() *Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	data := make([][]byte, len(d.data))
	copy(data, d.data)
	if d.cow == nil {
		d.cow = make([]bool, len(d.data))
	}
	for i, b := range d.data {
		if b != nil {
			d.cow[i] = true
		}
	}
	return &Snapshot{geo: d.geo, data: data}
}

// FromSnapshot creates a fresh device (clean stats, nothing armed) whose
// persisted contents equal the snapshot's. The snapshot can be
// instantiated any number of times; instances never interfere.
func FromSnapshot(s *Snapshot) *Disk {
	data := make([][]byte, len(s.data))
	copy(data, s.data)
	cow := make([]bool, len(s.data))
	for i, b := range data {
		if b != nil {
			cow[i] = true
		}
	}
	return &Disk{geo: s.geo, data: data, cow: cow, writesLeft: -1}
}

// blockForWrite returns the buffer for block i, replacing any buffer
// shared with a snapshot. The caller overwrites the full block. Called
// with d.mu held.
func (d *Disk) blockForWrite(i int64) []byte {
	b := d.data[i]
	if b == nil || (d.cow != nil && d.cow[i]) {
		b = make([]byte, d.geo.BlockSize)
		d.data[i] = b
		if d.cow != nil {
			d.cow[i] = false
		}
	}
	return b
}

// FailAfterWrites arms fault injection: the device crashes after n more
// block writes have been persisted. n = 0 crashes on the next write.
// Multi-block writes that straddle the limit are torn: the leading blocks
// are persisted, the rest are lost, and the write reports ErrCrashed.
func (d *Disk) FailAfterWrites(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writesLeft = n
	d.armed = true
}

// Crash immediately fail-stops the device, as if power were cut.
func (d *Disk) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashed = true
}

// Crashed reports whether the device is in the crashed state.
func (d *Disk) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

// Reopen clears the crashed state and disarms fail-stop fault injection,
// simulating a reboot with the same media. Persisted contents survive;
// the head position and statistics are reset (a fresh boot). Injected
// media faults also survive: a reboot does not repair a bad sector.
func (d *Disk) Reopen() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashed = false
	d.armed = false
	d.writesLeft = -1
	d.primed = false
	d.stats = Stats{}
}

// seekCurve returns the seek time for a head movement of dist blocks,
// using an acceleration-limited square-root curve.
func (d *Disk) seekCurve(dist int64) time.Duration {
	if dist < 0 {
		dist = -dist
	}
	if dist == 0 {
		// Same cylinder: no arm movement, but the access is still
		// non-sequential, so the caller charges rotational latency.
		return 0
	}
	frac := math.Sqrt(float64(dist) / float64(d.geo.NumBlocks))
	return d.geo.MinSeek + time.Duration(frac*float64(d.geo.MaxSeek-d.geo.MinSeek))
}

// charge accounts for one request of n blocks starting at addr.
//
// Every request pays half a revolution of rotational latency on average:
// even a request that continues exactly where the previous one ended was
// issued separately, and by the time the controller processes it the
// target sector has rotated past the head. This is what makes one large
// multi-block request (a whole-segment log write) fundamentally cheaper
// than the same blocks issued one request at a time — the effect the LFS
// paper's comparisons rest on. A request additionally pays seek time when
// the head has to move. The returned breakdown feeds per-request trace
// events.
func (d *Disk) charge(addr int64, n int) (seek, rot, xfer time.Duration, sequential bool) {
	sequential = d.primed && addr == d.head
	if !sequential {
		seek = d.seekCurve(addr - d.head)
		if !d.primed {
			seek = d.seekCurve(d.geo.NumBlocks / 3)
		}
		d.stats.Seeks++
		d.stats.SeekTime += seek
		d.stats.BusyTime += seek
	}
	rot = d.geo.RotationTime / 2
	d.stats.RotationTime += rot
	d.stats.BusyTime += rot
	bytes := float64(n * d.geo.BlockSize)
	xfer = time.Duration(bytes / d.geo.BandwidthBytesPerSec * float64(time.Second))
	d.stats.TransferTime += xfer
	d.stats.BusyTime += xfer
	d.head = addr + int64(n)
	d.primed = true
	return seek, rot, xfer, sequential
}

// emitRequest publishes one per-request trace event, stamped with the
// post-request busy time. Called with d.mu held.
func (d *Disk) emitRequest(op string, addr int64, n int, seek, rot, xfer time.Duration, sequential, torn bool) {
	if !d.tr.Tracing() {
		return
	}
	d.tr.Emit(obs.Event{
		T:    d.stats.BusyTime,
		Kind: obs.KindDiskIO,
		Disk: &obs.DiskIO{
			Op: op, Addr: addr, Blocks: n,
			Seek: seek, Rotation: rot, Transfer: xfer,
			Sequential: sequential, Torn: torn,
		},
	})
}

func (d *Disk) checkRange(addr int64, n int) error {
	if addr < 0 || n < 0 || addr+int64(n) > d.geo.NumBlocks {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, addr, addr+int64(n), d.geo.NumBlocks)
	}
	return nil
}

// Read reads len(buf) bytes starting at block addr. len(buf) must be a
// multiple of the block size. Contiguous reads that follow the previous
// request are charged transfer time only.
func (d *Disk) Read(addr int64, buf []byte) error {
	bs := d.geo.BlockSize
	if len(buf)%bs != 0 {
		return ErrBadSize
	}
	n := len(buf) / bs
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	if err := d.checkRange(addr, n); err != nil {
		return err
	}
	seek, rot, xfer, sequential := d.charge(addr, n)
	d.stats.ReadOps++
	d.stats.BlocksRead += int64(n)
	d.tr.Add(obs.CtrDiskReadOps, 1)
	d.tr.Add(obs.CtrDiskBlocksRead, int64(n))
	d.emitRequest("read", addr, n, seek, rot, xfer, sequential, false)
	for i := 0; i < n; i++ {
		b := d.data[addr+int64(i)]
		dst := buf[i*bs : (i+1)*bs]
		if b == nil {
			for j := range dst {
				dst[j] = 0
			}
		} else {
			copy(dst, b)
		}
	}
	return d.applyReadFaults(addr, n, buf)
}

// Write writes len(data) bytes starting at block addr. len(data) must be
// a multiple of the block size. Contiguous writes that follow the
// previous request are charged transfer time only, which is what makes
// large sequential log writes approach full device bandwidth.
func (d *Disk) Write(addr int64, data []byte) error {
	return d.WriteBlocks(addr, [][]byte{data})
}

// WriteBlocks writes the pieces back to back starting at block addr, as one
// request: it is charged, faulted, torn and traced exactly as Write of their
// concatenation, without the caller assembling it. Every piece must be a
// whole number of blocks. The device copies the pieces out before it
// returns; until then the caller must not modify them.
func (d *Disk) WriteBlocks(addr int64, pieces [][]byte) error {
	bs := d.geo.BlockSize
	n := 0
	for _, p := range pieces {
		if len(p)%bs != 0 {
			return ErrBadSize
		}
		n += len(p) / bs
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	if err := d.checkRange(addr, n); err != nil {
		return err
	}
	// Fault injection decides up front how many blocks persist, so a
	// torn write is charged only for its persisted prefix: the crash
	// cuts the transfer short, and the simulated-time accounting must
	// reflect the work the device actually did, or crash-recovery
	// experiments overstate seek/transfer/busy time. A media write fault
	// is the opposite: the device did the full mechanical pass (charged
	// for the attempted transfer, like read faults) but only the blocks
	// before the failing address landed. When both apply, the power cut
	// dominates — the device died before it could report the media error.
	ferr, fpersist := d.applyWriteFaults(addr, n)
	attempt := n // blocks of mechanical work charged
	persist := n // blocks that actually land
	if ferr != nil {
		persist = fpersist
	}
	torn := false
	if d.armed && int64(persist) > d.writesLeft {
		persist = int(d.writesLeft)
		attempt = persist
		torn = true
		ferr = nil
	}
	if attempt > 0 {
		seek, rot, xfer, sequential := d.charge(addr, attempt)
		d.stats.WriteOps++
		if d.armed {
			d.writesLeft -= int64(persist)
		}
		i := 0
		for _, p := range pieces {
			for off := 0; off < len(p) && i < persist; off += bs {
				copy(d.blockForWrite(addr+int64(i)), p[off:off+bs])
				i++
			}
		}
		d.stats.BlocksWritten += int64(attempt)
		d.tr.Add(obs.CtrDiskWriteOps, 1)
		d.tr.Add(obs.CtrDiskBlocksWritten, int64(attempt))
		d.emitRequest("write", addr, persist, seek, rot, xfer, sequential, torn)
	} else if torn {
		d.emitRequest("write", addr, 0, 0, 0, 0, false, true)
	}
	if torn {
		d.crashed = true
		return ErrCrashed
	}
	return ferr
}

// ReadBlock reads a single block into a freshly allocated buffer.
func (d *Disk) ReadBlock(addr int64) ([]byte, error) {
	buf := make([]byte, d.geo.BlockSize)
	if err := d.Read(addr, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteBlock writes a single block.
func (d *Disk) WriteBlock(addr int64, data []byte) error {
	if len(data) != d.geo.BlockSize {
		return ErrBadSize
	}
	return d.Write(addr, data)
}

// Peek returns the persisted contents of a block without charging any
// simulated time. It works even on a crashed device and is intended for
// tests and the lfsck tool.
func (d *Disk) Peek(addr int64) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkRange(addr, 1); err != nil {
		return nil, err
	}
	out := make([]byte, d.geo.BlockSize)
	if b := d.data[addr]; b != nil {
		copy(out, b)
	}
	return out, nil
}

// Poke overwrites the persisted contents of a block without charging any
// simulated time. It is intended for corruption-injection tests.
func (d *Disk) Poke(addr int64, data []byte) error {
	if len(data) != d.geo.BlockSize {
		return ErrBadSize
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkRange(addr, 1); err != nil {
		return err
	}
	b := make([]byte, d.geo.BlockSize)
	copy(b, data)
	d.data[addr] = b
	if d.cow != nil {
		d.cow[addr] = false
	}
	return nil
}
