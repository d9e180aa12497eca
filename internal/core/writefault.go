// Write-side media-fault handling: the retry → relocate → quarantine →
// degrade ladder. A log-structured file system can write its data
// anywhere, so a segment whose media refuses a write is not a reason to
// take the volume read-only — the staged batch is simply replayed into a
// different clean segment and the bad one is retired. Degraded mode is
// reached only when there is nothing left to relocate into.
package core

import (
	"errors"
	"fmt"

	"repro/internal/disk"
	"repro/internal/obs"
)

// mediaWriteRetries bounds how many times a device write failing with a
// media error is retried in place (so up to 4 attempts in all) before
// the write path gives up on the target.
const mediaWriteRetries = 3

// writeRetry issues one device write of the pieces back to back, retrying
// media write errors within the mediaWriteRetries budget. Transient faults
// that clear within the budget are invisible to callers apart from the
// retry counters; a write still failing afterwards is returned for the
// caller to relocate (log batches) or redirect (checkpoints).
func (fs *FS) writeRetry(addr int64, pieces ...[]byte) error {
	err := fs.dev.WriteBlocks(addr, pieces)
	for r := 0; r < mediaWriteRetries && errors.Is(err, disk.ErrMediaWrite); r++ {
		fs.tr.Add(obs.CtrMediaWriteRetries, 1)
		err = fs.dev.WriteBlocks(addr, pieces)
	}
	if errors.Is(err, disk.ErrMediaWrite) {
		fs.tr.Add(obs.CtrMediaWriteErrors, 1)
	}
	return err
}

// relocateHead retires the current head segment after its media refused a
// batch write: the segment is quarantined (persisted with the next
// checkpoint, never cleaned or reused; earlier partial writes in it stay
// readable in place) and the log moves to a fresh clean segment so the
// caller can replay the batch there. Relocation is privileged — it may
// consume the cleaner reserve, because the only alternative is degraded
// mode. When no clean segment remains the file system degrades: the
// batch's pointers reference addresses the device never accepted, so the
// torn state must never be flushed or checkpointed.
func (fs *FS) relocateHead(cause error) error {
	bad := fs.segs.head
	fs.quarantineSeg(bad)
	fs.tr.Add(obs.CtrSegsRetired, 1)
	if fs.segs.advance(fs.usage, fs.ticks.Load(), true) != nil {
		fs.degrade("relocate-exhausted", fmt.Sprintf("write relocation failed: no clean segment left after segment %d was retired: %v", bad, cause))
		return fmt.Errorf("lfs: write relocation out of clean segments (segment %d retired): %w", bad, cause)
	}
	// The hole left at the retired segment means roll-forward alone can
	// no longer reach anything written from here on; flushLog checkpoints
	// before acknowledging (see the relocatedSinceCp handling there).
	fs.relocatedSinceCp = true
	fs.tr.Add(obs.CtrMediaWriteRelocations, 1)
	return nil
}
