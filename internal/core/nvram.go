package core

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// NVRAM models a battery-backed write buffer (Section 2.1: "write-
// buffering has the disadvantage of increasing the amount of data lost
// during a crash ... for applications that require better crash recovery,
// non-volatile RAM may be used for the write buffer").
//
// The NVRAM holds a redo log of the operations whose effects are still
// only in the volatile file cache, stored in the wire encoding of
// nvwire.go — the form a real board would persist. Once a log flush
// makes those effects recoverable by roll-forward, the records are
// discarded. After a crash, mounting with the same NVRAM replays the
// surviving records, so no acknowledged operation is lost — at the cost
// of the (small, bounded) battery-backed memory.
//
// Replays are idempotent: an operation whose effect already reached the
// log is detected and skipped.
//
// With Options.NVSyncAbsorb the NVRAM is promoted from a safety net to
// the commit point itself: Sync returns as soon as the epoch's records
// are in NVRAM and the disk catches up asynchronously. See nvLog and
// (*FS).Sync for the durability accounting.
type NVRAM struct {
	mu       sync.Mutex
	capacity int64
	buf      []byte // wire-encoded records, append order
	count    int    // records in buf
}

type nvKind uint8

const (
	nvCreate nvKind = iota + 1
	nvMkdir
	nvWriteAt
	nvWriteFile
	nvTruncate
	nvRemove
	nvRename
	nvLink
)

// nvOpName is the name each kind is traced under (traceOp).
var nvOpName = [...]string{
	nvCreate: "create", nvMkdir: "mkdir", nvWriteAt: "write", nvWriteFile: "write",
	nvTruncate: "truncate", nvRemove: "delete", nvRename: "rename", nvLink: "link",
}

// nvRecord is the single description of a mutating operation: a public
// method builds one, (*FS).do runs it, the NVRAM stores its wire encoding
// and replay hands the decoded record back to the same (*FS).apply. data
// aliases the caller's payload on the live path (append copies it into
// the wire buffer) and is a private copy after a decode.
type nvRecord struct {
	kind   nvKind
	path   string
	path2  string
	offset int64
	size   int64
	data   []byte
}

// NewNVRAM returns an NVRAM of the given capacity in bytes. Sprite-era
// boards held a few hundred kilobytes; anything at least as large as the
// write buffer works well.
func NewNVRAM(capacity int64) *NVRAM {
	if capacity < 4096 {
		capacity = 4096
	}
	return &NVRAM{capacity: capacity}
}

// Capacity returns the NVRAM size in bytes.
func (nv *NVRAM) Capacity() int64 { return nv.capacity }

// Used returns the bytes currently buffered.
func (nv *NVRAM) Used() int64 {
	nv.mu.Lock()
	defer nv.mu.Unlock()
	return int64(len(nv.buf))
}

// Pending returns how many operations are currently buffered.
func (nv *NVRAM) Pending() int {
	nv.mu.Lock()
	defer nv.mu.Unlock()
	return nv.count
}

// Bytes returns a copy of the raw encoded contents — the image a crash
// would preserve. Pair with Restore to move NVRAM state between boards
// (or, in tests, between crash-run replicas).
func (nv *NVRAM) Bytes() []byte {
	nv.mu.Lock()
	defer nv.mu.Unlock()
	return append([]byte(nil), nv.buf...)
}

// Restore replaces the NVRAM contents with a Bytes image, validating the
// wire encoding first so a corrupt image is rejected atomically. The
// image must fit the board: append never lets the buffer exceed the
// capacity, so any larger image cannot have come from a same-sized
// NVRAM. Decoding works on a private copy, so the caller's slice is
// never touched (or raced on) by the validation pass.
func (nv *NVRAM) Restore(buf []byte) error {
	if int64(len(buf)) > nv.capacity {
		return fmt.Errorf("nvram: restore image of %d bytes exceeds capacity %d", len(buf), nv.capacity)
	}
	img := append([]byte(nil), buf...)
	recs, err := decodeNVRecords(img)
	if err != nil {
		return err
	}
	nv.mu.Lock()
	defer nv.mu.Unlock()
	nv.buf = img
	nv.count = len(recs)
	return nil
}

// append encodes and stores one record if it fits under the capacity;
// fit=false means the record was NOT stored and the caller must flush
// the log instead — the flush makes the operation (and everything the
// NVRAM already holds) recoverable by roll-forward, so the record is no
// longer needed. The capacity is a hard wall: the buffer never exceeds
// it, so a Bytes image always restores into a same-sized board. high
// reports the soft high-water mark (half full — the caller should
// schedule an asynchronous flush so the hard wall is rarely hit).
func (nv *NVRAM) append(r *nvRecord) (fit, high bool) {
	nv.mu.Lock()
	defer nv.mu.Unlock()
	if int64(len(nv.buf))+r.wireLen() > nv.capacity {
		return false, false
	}
	nv.buf = appendNVRecord(nv.buf, r)
	nv.count++
	return true, int64(len(nv.buf))*2 >= nv.capacity
}

// clear discards all records (their effects are durable in the log now).
func (nv *NVRAM) clear() {
	nv.mu.Lock()
	defer nv.mu.Unlock()
	nv.buf = nil
	nv.count = 0
}

// snapshot decodes the buffered records for replay.
func (nv *NVRAM) snapshot() ([]nvRecord, error) {
	nv.mu.Lock()
	defer nv.mu.Unlock()
	return decodeNVRecords(nv.buf)
}

// nvLog records a mutating operation in the NVRAM, if one is configured.
// Called by do with fs.mu held, after a successful apply and before the
// deferred opStaged closes the operation's epoch — so the operation
// completing now has epoch sequence stageSeq+1.
//
// In NVSyncAbsorb mode the NVRAM record is the commit point: nvSeq is
// advanced to cover this operation, the group committer is kicked (non-
// blocking) at the soft high-water mark, and a record that no longer
// fits forces the flush inline — that inline flush is the backpressure
// the mode promises. Without absorb the behavior is the historical one:
// the record is a safety net and a record that does not fit still
// flushes inline.
func (fs *FS) nvLog(r *nvRecord) error {
	nv := fs.opts.NVRAM
	if nv == nil {
		return nil
	}
	fit, high := nv.append(r)
	if !fit {
		// Hard backpressure: the record was not stored. The inline
		// flush persists this operation's staged effects (and every
		// earlier one) to the log and empties the NVRAM via nvClear, so
		// the record is unnecessary — roll-forward re-derives it all.
		if fs.opts.NVSyncAbsorb {
			fs.stats.NVBackpressureFlushes++
			fs.tr.Add(obs.CtrNVBackpressureFlushes, 1)
		}
		if err := fs.flushLog(); err != nil {
			return err
		}
		if fs.opts.NVSyncAbsorb {
			// The flush covered this operation on disk (flushedSeq still
			// reads seq-1: stageSeq bumps only at operation end), so the
			// NVRAM epoch may advance past it — but only after the flush
			// succeeded, since nothing else holds this record.
			seq := fs.stageSeq.Load() + 1
			if fs.flushedSeq.Load() >= seq-1 {
				fs.nvSeq.Store(seq)
			}
		}
		return nil
	}
	if fs.opts.NVSyncAbsorb {
		seq := fs.stageSeq.Load() + 1
		// nvSeq may only advance to seq if every earlier operation is
		// already durable (in NVRAM or covered by a flush). A failed
		// operation can stage partial state without writing a record;
		// the gap it leaves forces Sync back onto the disk path until a
		// flush covers it.
		if fs.nvSeq.Load() >= seq-1 || fs.flushedSeq.Load() >= seq-1 {
			fs.nvSeq.Store(seq)
		}
		if high {
			fs.kickCommitAsync(seq)
		}
	}
	return nil
}

// nvClear empties the NVRAM after a flush made its contents recoverable
// from the log. Flushes issued by recovery itself (the roll-forward
// commit) must not clear it: the records are about to be replayed.
func (fs *FS) nvClear() {
	if nv := fs.opts.NVRAM; nv != nil && !fs.nvReplaying && !fs.inRecovery {
		nv.clear()
	}
}

// replayNVRAM reapplies the operations that were buffered in NVRAM when
// the crash happened. Mount calls it after roll-forward, so each record
// either re-applies cleanly or is detected as already durable.
func (fs *FS) replayNVRAM() error {
	nv := fs.opts.NVRAM
	if nv == nil {
		return nil
	}
	records, err := nv.snapshot()
	if err != nil {
		return fmt.Errorf("nvram decode: %w", err)
	}
	if len(records) == 0 {
		return nil
	}
	fs.nvReplaying = true
	defer func() { fs.nvReplaying = false }()
	for i := range records {
		if err := fs.replayOne(&records[i]); err != nil {
			return fmt.Errorf("nvram replay %d (%s): %w", i, records[i].path, err)
		}
	}
	if err := fs.flushLog(); err != nil {
		return err
	}
	nv.clear()
	return nil
}

// replayOne puts one surviving record through apply — the body and every
// check of the live operation — unless its effect already reached the
// log before the crash, which is what makes a replay idempotent. It
// skips what do wraps around apply: admission and tick (no other
// operation runs during Mount), nvLog (the record is already in the
// NVRAM) and the epilogue (replayNVRAM ends in one flushLog instead).
func (fs *FS) replayOne(r *nvRecord) error {
	exists := func(p string) bool {
		_, err := fs.resolve(p)
		return err == nil
	}
	switch r.kind {
	case nvCreate, nvMkdir:
		if exists(r.path) {
			return nil
		}
	case nvRemove, nvRename:
		if !exists(r.path) {
			return nil // already gone (a rename's source: already moved)
		}
	case nvLink:
		if exists(r.path2) {
			return nil
		}
	}
	_, err := fs.apply(r, nil)
	return err
}
