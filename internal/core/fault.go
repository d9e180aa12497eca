// Media-fault handling: bounded retries for transient read errors,
// verify-on-read against the per-block checksums recorded in segment
// summaries, a persistent quarantine for segments caught returning bad
// data, and the sticky degraded read-only mode entered when metadata is
// unrecoverable. The disk layer injects faults (internal/disk/fault.go);
// this layer is everything the file system does to survive them.
package core

import (
	"errors"
	"fmt"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// mediaRetries bounds how many times a read failing with a media error
// is retried before the error is surfaced (so up to 4 attempts in all).
const mediaRetries = 3

// readRetry reads len(buf) bytes at addr, retrying media errors within
// the mediaRetries budget. Transient latent-sector errors that clear
// within the budget are invisible to the caller apart from the
// media.retries counter.
func (fs *FS) readRetry(addr int64, buf []byte) error {
	return fs.retryMedia(func() error { return fs.dev.Read(addr, buf) })
}

// readViewsRetry is readRetry in disk.ReadViews' form: views of the
// device's own blocks, not a copy of them.
func (fs *FS) readViewsRetry(addr int64, views [][]byte) error {
	return fs.retryMedia(func() error { return fs.dev.ReadViews(addr, views) })
}

func (fs *FS) retryMedia(read func() error) error {
	err := read()
	for r := 0; r < mediaRetries && errors.Is(err, disk.ErrMediaRead); r++ {
		fs.tr.Add(obs.CtrMediaRetries, 1)
		err = read()
	}
	if errors.Is(err, disk.ErrMediaRead) {
		fs.tr.Add(obs.CtrMediaErrors, 1)
	}
	return err
}

// readVerified reads the block at addr into buf, past the read cache,
// and checks it against its summary checksum.
func (fs *FS) readVerified(addr int64, buf []byte) error {
	if err := fs.readRetry(addr, buf); err != nil {
		return err
	}
	return fs.verifyBlock(addr, buf)
}

// harvestSums is sumIndex.lookup's walk over the device: it hands add every
// summary of seg's on-disk chain. A read error ends the harvest and is
// returned. Reads bypass the read cache — summaries are not file data.
func (fs *FS) harvestSums(seg int64, add func(int64, []layout.SummaryEntry)) error {
	s := fs.getWalkScratch()
	defer fs.putWalkScratch(s)
	w := fs.walkSegment(seg, s)
	for w.Next() {
		add(w.DataAddr(), s.Entries)
	}
	_, err := fs.walkEnded(w.End())
	return err
}

// verifyBlock checks a block just read from addr against the checksum
// its segment summary recorded at write time. A mismatch quarantines the
// segment and returns a typed *ErrCorrupted (unattributed; the caller
// adds file coordinates with attributeCorruption). A summary chain that
// is unreadable, or does not describe a live block, is itself damaged —
// metadata unrecoverable — so the file system degrades; a block the
// readable part of the chain describes is still verified and returned.
func (fs *FS) verifyBlock(addr int64, buf []byte) error {
	sum, ok, err := fs.sums.lookup(addr, fs.harvestSums)
	if err != nil {
		fs.degrade("summary-chain", fmt.Sprintf("summary chain of segment %d unreadable: %v", fs.segOf(addr), err))
	}
	if !ok {
		fs.degrade("summary-chain", fmt.Sprintf("segment %d summary chain does not describe live block %d", fs.segOf(addr), addr))
		return &ErrCorrupted{Offset: -1, Addr: addr}
	}
	if layout.Checksum(buf) != sum {
		fs.tr.Add(obs.CtrCorruptBlocks, 1)
		fs.quarantineSeg(fs.segOf(addr))
		return &ErrCorrupted{Offset: -1, Addr: addr}
	}
	fs.tr.Add(obs.CtrVerifiedBlocks, 1)
	return nil
}

// attributeCorruption fills in the file coordinates of an unattributed
// *ErrCorrupted surfaced by a lower layer. Other errors pass through.
func attributeCorruption(err error, inum uint32, offset int64) error {
	var ce *ErrCorrupted
	if errors.As(err, &ce) && ce.Ino == 0 && ce.Offset < 0 {
		return &ErrCorrupted{Ino: inum, Offset: offset, Addr: ce.Addr}
	}
	return err
}

// quarantineSeg withdraws a segment from service: the allocator never
// reuses it and the cleaner never evacuates it, so whatever live data it
// still holds stays readable in place but is never trusted as a copy
// source. The set is persisted through the checkpoint region.
func (fs *FS) quarantineSeg(seg int64) {
	if fs.segs.quarantine(seg) {
		fs.tr.Add(obs.CtrQuarantinedSegs, 1)
	}
}

// QuarantinedSegments returns the quarantined segments in ascending
// order (empty when the media has behaved).
func (fs *FS) QuarantinedSegments() []int64 { return fs.segs.quarantinedSegs() }

// degrade flips the file system into sticky degraded read-only mode.
// Reads keep working on whatever survives; every mutating operation
// fails fast with ErrDegraded, and no block is ever written again (a
// checkpoint built over broken metadata would launder the damage).
// label is a short stable cause tag recorded as a per-reason counter;
// reason is the human-readable diagnosis behind DegradedReason.
//
// The reason is published before the degraded flag flips: a reader that
// observes Degraded()==true is therefore guaranteed a non-empty
// DegradedReason(). The first caller to publish a reason wins (matching
// the first CAS winning the flag) — concurrent later causes are not
// allowed to overwrite the original diagnosis.
func (fs *FS) degrade(label, reason string) {
	fs.degradedReason.CompareAndSwap(nil, &reason)
	if fs.degraded.CompareAndSwap(false, true) {
		fs.tr.Add(obs.CtrDegraded, 1)
		fs.tr.Add(obs.CtrDegradedReasonPrefix+label, 1)
	}
}

// undegrade exits degraded mode after a successful salvage rebuilt and
// re-checkpointed the metadata. Called with fs.mu held; the reason is
// cleared after the flag so readers never see degraded with a stale
// blank reason.
func (fs *FS) undegrade() {
	fs.degraded.Store(false)
	fs.degradedReason.Store(nil)
}

// Degraded reports whether the file system is in degraded read-only mode.
func (fs *FS) Degraded() bool { return fs.degraded.Load() }

// DegradedReason returns what pushed the file system into degraded mode
// ("" when it has not degraded).
func (fs *FS) DegradedReason() string {
	if r := fs.degradedReason.Load(); r != nil {
		return *r
	}
	return ""
}

// failIfDegraded is the fast-fail gate at the top of every mutating
// public operation.
func (fs *FS) failIfDegraded() error {
	if fs.degraded.Load() {
		return ErrDegraded
	}
	return nil
}
