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
	err := fs.dev.Read(addr, buf)
	for r := 0; r < mediaRetries && errors.Is(err, disk.ErrMediaRead); r++ {
		fs.tr.Add(obs.CtrMediaRetries, 1)
		err = fs.dev.Read(addr, buf)
	}
	if errors.Is(err, disk.ErrMediaRead) {
		fs.tr.Add(obs.CtrMediaErrors, 1)
	}
	return err
}

// readBlockRetry is readRetry for a single freshly allocated block.
func (fs *FS) readBlockRetry(addr int64) ([]byte, error) {
	buf := make([]byte, layout.BlockSize)
	if err := fs.readRetry(addr, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// recordBlockSum remembers the checksum a block was written with, so
// verify-on-read can check it without consulting the on-disk summary.
func (fs *FS) recordBlockSum(addr int64, sum uint32) {
	fs.sumsMu.Lock()
	fs.blockSums[addr] = sum
	fs.sumsMu.Unlock()
}

// pruneSegSums forgets the checksums and harvest state of a segment that
// is being released for reuse: its next incarnation starts clean.
func (fs *FS) pruneSegSums(seg int64) {
	start := fs.segStart(seg)
	fs.sumsMu.Lock()
	for a := start; a < start+fs.segBlocks; a++ {
		delete(fs.blockSums, a)
	}
	delete(fs.sumsLoaded, seg)
	fs.sumsMu.Unlock()
}

// lookupBlockSum returns the summary-recorded checksum for the block at
// addr, harvesting the segment's on-disk summary chain on first miss.
// ok is false when the chain does not describe the block; err reports a
// media failure reading the chain itself.
func (fs *FS) lookupBlockSum(addr int64) (sum uint32, ok bool, err error) {
	seg := fs.segOf(addr)
	fs.sumsMu.Lock()
	defer fs.sumsMu.Unlock()
	if s, ok := fs.blockSums[addr]; ok {
		return s, true, nil
	}
	if fs.sumsLoaded[seg] {
		return 0, false, nil
	}
	err = fs.harvestSegSums(seg)
	// Partial harvests still mark the segment loaded: the chain is only
	// re-walked if the segment's sums are pruned on reuse.
	fs.sumsLoaded[seg] = true
	if err != nil {
		return 0, false, err
	}
	s, ok := fs.blockSums[addr]
	return s, ok, nil
}

// harvestSegSums walks the summary chain of seg, recording the per-block
// checksum of every described block. A read error ends the harvest and is
// returned. Reads bypass the read cache — summaries are not file data.
// Called with sumsMu held.
func (fs *FS) harvestSegSums(seg int64) error {
	s := fs.getWalkScratch()
	defer fs.putWalkScratch(s)
	w := fs.walkSegment(seg, s)
	for w.Next() {
		for i, e := range s.Entries {
			fs.blockSums[w.DataAddr()+int64(i)] = e.Sum
		}
	}
	_, err := fs.walkEnded(w.End())
	return err
}

// verifyBlock checks a block just read from addr against the checksum
// its segment summary recorded at write time. A mismatch quarantines the
// segment and returns a typed *ErrCorrupted (unattributed; the caller
// adds file coordinates with attributeCorruption). A live block whose
// summary chain is unreadable or does not describe it means the chain
// itself is damaged — metadata unrecoverable — so the file system
// degrades.
func (fs *FS) verifyBlock(addr int64, buf []byte) error {
	sum, ok, err := fs.lookupBlockSum(addr)
	if err != nil {
		fs.degrade("summary-chain", fmt.Sprintf("summary chain of segment %d unreadable: %v", fs.segOf(addr), err))
		return &ErrCorrupted{Offset: -1, Addr: addr}
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
	if seg < 0 || seg >= fs.nsegs {
		return
	}
	fs.quarMu.Lock()
	fresh := !fs.quarantined[seg]
	if fresh {
		fs.quarantined[seg] = true
	}
	fs.quarMu.Unlock()
	if fresh {
		fs.tr.Add(obs.CtrQuarantinedSegs, 1)
	}
}

func (fs *FS) isQuarantined(seg int64) bool {
	fs.quarMu.Lock()
	q := fs.quarantined[seg]
	fs.quarMu.Unlock()
	return q
}

// QuarantinedSegments returns the quarantined segments in ascending
// order (empty when the media has behaved).
func (fs *FS) QuarantinedSegments() []int64 {
	fs.quarMu.Lock()
	defer fs.quarMu.Unlock()
	return sortedKeys(fs.quarantined)
}

// degrade flips the file system into sticky degraded read-only mode.
// Reads keep working on whatever survives; every mutating operation
// fails fast with ErrDegraded, and no block is ever written again (a
// checkpoint built over broken metadata would launder the damage).
// label is a short stable cause tag recorded as a per-reason counter;
// reason is the human-readable diagnosis behind DegradedReason.
//
// The reason is published under quarMu before the degraded flag flips:
// a reader that observes Degraded()==true is therefore guaranteed a
// non-empty DegradedReason(). The first caller to publish a reason wins
// (matching the first CAS winning the flag) — concurrent later causes
// are not allowed to overwrite the original diagnosis.
func (fs *FS) degrade(label, reason string) {
	fs.quarMu.Lock()
	if fs.degradedReason == "" {
		fs.degradedReason = reason
	}
	fs.quarMu.Unlock()
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
	fs.quarMu.Lock()
	fs.degradedReason = ""
	fs.quarMu.Unlock()
}

// Degraded reports whether the file system is in degraded read-only mode.
func (fs *FS) Degraded() bool { return fs.degraded.Load() }

// DegradedReason returns what pushed the file system into degraded mode
// ("" when it has not degraded).
func (fs *FS) DegradedReason() string {
	fs.quarMu.Lock()
	defer fs.quarMu.Unlock()
	return fs.degradedReason
}

// failIfDegraded is the fast-fail gate at the top of every mutating
// public operation.
func (fs *FS) failIfDegraded() error {
	if fs.degraded.Load() {
		return ErrDegraded
	}
	return nil
}
