// Media-fault injection: latent sector read errors and silent bit-flip
// corruption, layered alongside the fail-stop (power-cut) model. Faults
// are a property of the simulated media, so unlike FailAfterWrites they
// survive Reopen — a reboot does not repair a bad sector. Everything is
// deterministic and seedable so fault-sweep tests replay exactly.
package disk

import (
	"errors"
	"fmt"
	"slices"
)

// ErrMediaRead reports an unrecoverable (or not-yet-recovered transient)
// media error on a read. It is the target for errors.Is; the concrete
// error carries the failing block address.
var ErrMediaRead = errors.New("disk: media read error")

// MediaError is the concrete error returned when a read touches a block
// covered by an active FaultReadError fault. It unwraps to ErrMediaRead.
type MediaError struct {
	Addr int64 // failing block address
}

func (e *MediaError) Error() string {
	return fmt.Sprintf("disk: media read error at block %d", e.Addr)
}

// Unwrap makes errors.Is(err, ErrMediaRead) match.
func (e *MediaError) Unwrap() error { return ErrMediaRead }

// ErrMediaWrite reports an unrecoverable (or not-yet-recovered transient)
// media error on a write. It is the target for errors.Is; the concrete
// error carries the failing block address.
var ErrMediaWrite = errors.New("disk: media write error")

// MediaWriteError is the concrete error returned when a write touches a
// block covered by an active FaultWriteError fault. It unwraps to
// ErrMediaWrite.
type MediaWriteError struct {
	Addr int64 // failing block address
}

func (e *MediaWriteError) Error() string {
	return fmt.Sprintf("disk: media write error at block %d", e.Addr)
}

// Unwrap makes errors.Is(err, ErrMediaWrite) match.
func (e *MediaWriteError) Unwrap() error { return ErrMediaWrite }

// FaultKind selects what an injected fault does to reads.
type FaultKind uint8

const (
	// FaultReadError makes reads covering the range fail with a
	// *MediaError. If Transient > 0 the fault clears after that many
	// failed read attempts (a recoverable latent error); otherwise it is
	// permanent until ClearFaults.
	FaultReadError FaultKind = iota + 1
	// FaultCorrupt makes reads covering the range succeed but return
	// silently corrupted data: a deterministic bit flip derived from
	// Seed and the block address, stable across repeated reads. The
	// persisted contents are untouched (Peek sees the true bytes).
	FaultCorrupt
	// FaultWriteError makes writes covering the range fail with a
	// *MediaWriteError. Blocks before the first failing address persist
	// (the head of the transfer landed); the failing block and everything
	// after it do not. If Transient > 0 the fault clears after that many
	// failed write attempts; otherwise it is permanent until ClearFaults.
	// Reads of the range are unaffected.
	FaultWriteError
)

// Fault scripts one media fault over a block address range.
type Fault struct {
	Kind   FaultKind
	Addr   int64 // first block covered
	Blocks int64 // blocks covered (0 means 1)
	// Transient, for FaultReadError and FaultWriteError, is how many
	// failed attempts occur before the fault clears on its own. 0 means
	// permanent.
	Transient int
	// Seed drives the deterministic corruption pattern for FaultCorrupt.
	Seed int64
}

// fault is the armed form of a Fault, with its remaining transient count.
type fault struct {
	Fault
	remaining int // attempts left before a transient fault clears
	cleared   bool
}

func (f *fault) covers(addr int64) bool {
	n := f.Blocks
	if n <= 0 {
		n = 1
	}
	return addr >= f.Addr && addr < f.Addr+n
}

// InjectFault arms one media fault. Faults accumulate until ClearFaults;
// they survive Reopen (bad sectors are not repaired by a reboot) but are
// not carried into devices instantiated with FromSnapshot.
func (d *Disk) InjectFault(f Fault) error {
	n := f.Blocks
	if n <= 0 {
		n = 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkRange(f.Addr, int(n)); err != nil {
		return err
	}
	switch f.Kind {
	case FaultReadError, FaultCorrupt, FaultWriteError:
	default:
		return fmt.Errorf("disk: unknown fault kind %d", f.Kind)
	}
	d.faults = append(d.faults, &fault{Fault: f, remaining: f.Transient})
	return nil
}

// ClearFaults removes every injected media fault, simulating a media
// replacement. The fail-stop state is untouched.
func (d *Disk) ClearFaults() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.faults = nil
}

// ActiveFaults returns the injected faults that have not yet cleared, in
// injection order. Intended for tests and tools.
func (d *Disk) ActiveFaults() []Fault {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []Fault
	for _, f := range d.faults {
		if !f.cleared {
			out = append(out, f.Fault)
		}
	}
	return out
}

// applyReadFaults applies media faults to one read request of n blocks at
// addr whose data has already been copied into buf, or lies in views (with
// buf nil). Corruption faults rewrite the affected blocks in buf, or
// replace a view by a corrupted copy, never the device's own buffer;
// read-error faults fail the whole request with the first failing address
// (the controller aborts the transfer). Each transient fault counts at
// most one attempt per request.
// Called with d.mu held, after the request has been charged — the device
// did the mechanical work even though the data never arrived.
func (d *Disk) applyReadFaults(addr int64, n int, buf []byte, views [][]byte) error {
	if len(d.faults) == 0 {
		return nil
	}
	bs := d.geo.BlockSize
	var ferr error
	for _, f := range d.faults {
		if f.cleared {
			continue
		}
		hit := false
		for i := 0; i < n; i++ {
			a := addr + int64(i)
			if !f.covers(a) {
				continue
			}
			hit = true
			switch f.Kind {
			case FaultCorrupt:
				if views != nil {
					views[i] = slices.Clone(views[i])
					corruptBlock(views[i], f.Seed, a)
				} else {
					corruptBlock(buf[i*bs:(i+1)*bs], f.Seed, a)
				}
			case FaultReadError:
				if ferr == nil {
					ferr = &MediaError{Addr: a}
				}
			}
		}
		if hit && f.Kind == FaultReadError && f.Transient > 0 {
			f.remaining--
			if f.remaining <= 0 {
				f.cleared = true
			}
		}
	}
	return ferr
}

// applyWriteFaults applies media faults to one write request of n blocks
// at addr. It is the write-side twin of applyReadFaults: a write-error
// fault fails the request with the first failing address (the controller
// aborts the transfer there), and the caller persists only the blocks
// before that address. Each transient fault counts at most one attempt
// per request. Called with d.mu held, after the request has been charged —
// the device did the mechanical work even though the data never landed.
// The second return is the number of leading blocks that still persist.
func (d *Disk) applyWriteFaults(addr int64, n int) (error, int) {
	if len(d.faults) == 0 {
		return nil, n
	}
	var ferr error
	persist := n
	for _, f := range d.faults {
		if f.cleared || f.Kind != FaultWriteError {
			continue
		}
		hit := false
		for i := 0; i < n; i++ {
			a := addr + int64(i)
			if !f.covers(a) {
				continue
			}
			hit = true
			if ferr == nil || a < ferr.(*MediaWriteError).Addr {
				ferr = &MediaWriteError{Addr: a}
			}
		}
		if hit && f.Transient > 0 {
			f.remaining--
			if f.remaining <= 0 {
				f.cleared = true
			}
		}
	}
	if ferr != nil {
		persist = int(ferr.(*MediaWriteError).Addr - addr)
	}
	return ferr, persist
}

// corruptBlock flips bits in b as a pure function of (seed, addr), so the
// same corrupted bytes come back on every read of the block. The XOR mask
// is forced non-zero, so the block always differs from its true contents.
func corruptBlock(b []byte, seed, addr int64) {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(addr)*0xBF58476D1CE4E5B9 ^ 0xD6E8FEB86659FD93
	// xorshift64 mix
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	pos := int(x % uint64(len(b)))
	mask := byte(x>>40) | 1
	b[pos] ^= mask
}
