package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// stagedBlock is one block queued for the next log write. Content is
// either fixed (data) or, left nil, encoded by the entry's Kind (encode)
// after every block in the partial write has been placed — which is how
// self-describing metadata such as the segment usage table captures its
// own placement.
type stagedBlock struct {
	entry   layout.SummaryEntry
	data    []byte
	file    *mInode  // a data block's file, or the file an indirect block maps
	group   []uint32 // an inode block's inums, one per slot
	age     uint64
	cleaner bool // written on behalf of the cleaner (for stats)
	summed  bool // entry.Sum is already data's CRC (a verified cleaner copy)
	// pooled marks data as a bufpool buffer (a dirty file block, never a
	// cleaner copy) owned by the staging queue: writeBatch caches or pools
	// it once the device write that covers it succeeds. On a degrading
	// flush failure the buffer is leaked to the GC instead — the torn
	// staging state must never feed the freelist.
	pooled bool
}

func (fs *FS) stage(b stagedBlock) {
	if fs.inCleaner {
		b.cleaner = true
	}
	fs.pending = append(fs.pending, b)
}

func isUsage(b stagedBlock) bool { return b.entry.Kind == layout.KindSegUsage }

// flushPending writes every staged block to the log in one or more
// partial-segment writes, each led by a segment summary block
// (Section 3.2). Each partial write is a single contiguous device write,
// which is what lets the log use nearly the full disk bandwidth.
func (fs *FS) flushPending() error {
	queue := fs.pending
	for len(fs.pending) > 0 {
		// A batch is a summary plus at least one block; what the head
		// segment cannot take waits for the next one.
		n := min(len(fs.pending), int(fs.segBlocks-fs.segs.headOff)-1, layout.MaxSummaryEntries)
		// The usage blocks of one checkpoint go out in one partial write.
		// Each encodes the table as it stands at its own batch's phase 2,
		// so one cut off from its successors would be persisted without
		// the live-count changes their placement makes. Cut in front of
		// the run instead; when the run leads the queue, leave the rest
		// of this segment unused (the checkpoint region written next
		// re-roots the log thread past the gap). A table too large for
		// any single write is split as before.
		if run := fs.usage.numBlocks(); n > 0 && n < len(fs.pending) &&
			isUsage(fs.pending[n-1]) && isUsage(fs.pending[n]) &&
			run <= layout.MaxSummaryEntries && int64(run) < fs.segBlocks {
			for n > 0 && isUsage(fs.pending[n-1]) {
				n--
			}
		}
		if n < 1 {
			// The head is full. Moving on must never block or drop fs.mu:
			// this is the middle of log placement, when block pointers are
			// torn. Cleaning starts in the epilogue, at an operation
			// boundary; here the cleaner reserve is only a hard backstop.
			privileged := fs.inCleaner || fs.recovering() || fs.cpActive
			if err := fs.segs.advance(fs.usage, fs.ticks.Load(), privileged); err != nil {
				return err
			}
			continue
		}
		batch := fs.pending[:n]
		fs.pending = fs.pending[n:]

		// Write the batch at the current head. A head whose media refuses
		// the write (after bounded in-place retries) is retired —
		// quarantined, never reused — and the batch replayed into a fresh
		// segment. Each replay re-runs both phases: placement moves every
		// pointer to the new addresses (the decLive against the poisoned
		// placement cancels its accounting) and re-encoding lets
		// self-describing metadata capture the new location. Only when no
		// clean segment remains does the file system degrade (inside
		// relocateHead): a single bad segment never takes the volume
		// read-only.
		for {
			err := fs.writeBatch(batch)
			if err == nil {
				break
			}
			if !errors.Is(err, disk.ErrMediaWrite) {
				return err
			}
			if rerr := fs.relocateHead(err); rerr != nil {
				return rerr
			}
		}
		// Written: the file pointers pin inodes and must not outlive the
		// flush in the queue's backing array.
		clear(batch)
	}
	// Drained: rewind to the start of the backing array, so the queue is
	// bounded by one flush and not by how many came before it. An array a
	// cleaning pass grew (tens of segments' live blocks in one flush) is
	// dropped, not kept resident for the one-segment flushes that follow.
	fs.pending = queue[:0]
	if cap(queue) > 2*int(fs.segBlocks) {
		fs.pending = nil
	}
	return nil
}

// flushAt is the staged-block count at which a write flushes the buffer:
// the largest, at most WriteBufferBlocks-1, that ends the flush at a
// segment boundary (the head segment's room, then whole segments, each less
// its summaries), else WriteBufferBlocks-1. A Sync or checkpoint leaves the
// head part-full; as in Sprite LFS the next buffer-full flush fills it
// rather than spill into the next segment, which would cost roll-forward a
// request of its own.
func (fs *FS) flushAt() int {
	limit := int64(fs.opts.WriteBufferBlocks - 1)
	at, per := segRoom(fs.segBlocks-fs.segs.headOff), max(segRoom(fs.segBlocks), 1)
	if at += max(limit-at, 0) / per * per; at < 1 || at > limit {
		return int(limit)
	}
	return int(at)
}

// segRoom is how many blocks besides summaries flushPending puts in free
// blocks of a segment, in partial writes of at most MaxSummaryEntries.
func segRoom(free int64) int64 {
	const w = layout.MaxSummaryEntries + 1
	return free/w*layout.MaxSummaryEntries + max(free%w-1, 0)
}

// writeBatch runs the two-phase partial-segment write of one batch at the
// current log head: Phase 1 assigns addresses and updates every pointer
// and accounting entry, Phase 2 encodes contents and issues one device
// write, the summary leading the blocks it describes, encoded with every
// late-bound block into one buffer the write drops (a pooled one would idle
// at rest). A media write error return leaves the batch placed at the
// refused addresses; the caller relocates the head and calls writeBatch
// again, which re-places and re-encodes everything against the new segment.
func (fs *FS) writeBatch(batch []stagedBlock) error {
	n := len(batch)
	head := fs.segs.head
	sumAddr := fs.segStart(head) + fs.segs.headOff
	now := fs.ticks.Load()

	// Phase 1: assign addresses and update all pointers/accounting.
	late := 0
	for i := range batch {
		addr := sumAddr + 1 + int64(i)
		if err := fs.place(&batch[i], addr); err != nil {
			return err
		}
		if batch[i].data == nil {
			late++
		}
		fs.rc.drop(addr)
	}
	fs.usage.noteWrite(head, now)
	fs.rc.drop(sumAddr)
	fs.ra.drop(sumAddr, int64(1+n))

	// Phase 2: encode contents (late-bound encoders see final state) and
	// touch each block once: its CRC goes into its entry (a cleaner copy's
	// arrives verified), DataChecksum is folded from the entries, and the
	// staged buffers go to the device as they are, unmodified until it
	// returns. On every error return below the staged data stays with the
	// batch, which degrades (see flushLog) or is replayed (media errors).
	meta := make([]byte, (1+late)*layout.BlockSize) // the summary, then the late-bound blocks
	entries := make([]layout.SummaryEntry, n)
	vec := append(fs.wvec[:0], meta[:layout.BlockSize]) // slot 0: the summary, encoded last
	var dataSum uint32
	var youngest uint64
	next := layout.BlockSize
	for i := range batch {
		b := &batch[i]
		b.entry.Age = b.age
		content := b.data
		if content == nil {
			content, next = meta[next:next+layout.BlockSize], next+layout.BlockSize
			if err := fs.encode(b, content); err != nil {
				return err
			}
		}
		if len(content) != layout.BlockSize {
			return fmt.Errorf("%w: staged block has %d bytes", ErrCorrupt, len(content))
		}
		if !b.summed {
			b.entry.Sum = layout.Checksum(content)
		}
		dataSum = layout.ChecksumAppendBlock(dataSum, b.entry.Sum)
		vec = append(vec, content)
		entries[i] = b.entry
		youngest = max(youngest, b.age)
	}
	// The last partial write of the flush carries the transaction-end
	// marker: everything this flush acknowledged is on disk once this
	// write lands. NVRAM-backed recovery uses it to discard torn
	// flush groups atomically (see rollForwardScan).
	var flags uint8
	if len(fs.pending) == 0 {
		flags = layout.SummaryFlagTxnEnd
	}
	summary := layout.Summary{
		WriteSeq:     fs.writeSeq,
		Timestamp:    now,
		NextSeg:      fs.segs.next,
		YoungestAge:  youngest,
		DataChecksum: dataSum,
		Flags:        flags,
		Entries:      entries,
	}
	if err := summary.EncodeTo(vec[0]); err != nil {
		return err
	}
	// The summary and its blocks go to the device as one sequential
	// request (Figure 1). The writer issues each partial write only after
	// the one before it has returned, so a valid summary implies complete
	// data for every write but the thread's final one, the one write a
	// crash can tear; roll-forward verifies that one (readTail). A media
	// write error past the summary leaves it on disk describing blocks
	// that never landed: it is voided, so the refused write stays as
	// invisible to every walk as one that never reached the device.
	err := fs.writeRetry(sumAddr, vec...)
	if err != nil {
		var werr *disk.MediaWriteError // here, not above: errors.As makes it escape
		if errors.As(err, &werr) && werr.Addr > sumAddr {
			if verr := fs.dev.Write(sumAddr, make([]byte, layout.BlockSize)); verr != nil && !errors.Is(verr, disk.ErrMediaWrite) {
				err = verr
			}
		}
	}
	clear(vec) // keep the list for the next batch, not the blocks it views
	fs.wvec = vec[:0]
	if err != nil {
		return err
	}
	// The device copied everything out. A file block just written enters
	// the read cache at its final address, or the freelist if the cleaner
	// flushed it (cold) or the cache declines it: the write path's loop,
	// prepareWrite / writeAt Get → dcache → staged → here, closes.
	for i, b := range batch {
		if b.pooled && (b.cleaner || !fs.rc.put(sumAddr+1+int64(i), b.data)) {
			fs.bpool.Put(b.data)
		}
	}
	// Remember each block's checksum so verify-on-read can check it
	// without re-reading the summary from disk.
	fs.sums.record(sumAddr+1, entries)
	if fs.mnt != nil && fs.mnt.tail != nil {
		fs.mnt.tail.add(layout.LogPos{Seg: head, Off: fs.segs.headOff}, entries)
	}

	fs.writeSeq++
	fs.segs.headOff += int64(1 + n)
	fs.bytesSinceCp += int64(1+n) * layout.BlockSize
	fs.stats.PartialWrites++
	fs.stats.SummaryBytes += layout.BlockSize
	for i := range batch {
		b := &batch[i]
		fs.stats.addKind(b.entry.Kind, layout.BlockSize)
		if b.cleaner {
			fs.stats.CleanerWriteBytes += layout.BlockSize
		} else {
			fs.stats.NewDataBytes += layout.BlockSize
		}
		if fs.recovering() {
			fs.stats.RollForwardWrites++
		}
	}
	fs.tracePartialWrite(sumAddr, batch)
	return nil
}

// place is Phase 1 of writeBatch for one block: it points whatever finds
// the block (a block map, the inode map, a map's block table, the dirlog
// list) at addr, retires the copy it replaces, and counts addr live.
func (fs *FS) place(b *stagedBlock, addr int64) error {
	old := layout.NilAddr
	switch e := b.entry; e.Kind {
	case layout.KindData:
		var err error
		if old, err = fs.setBlockAddr(b.file, e.BlockNo, addr); err != nil {
			return err
		}
	case layout.KindIndirect:
		cell := b.file.parent(e.BlockNo)
		old, *cell = *cell, addr
	case layout.KindInode:
		for slot, inum := range b.group {
			prev := fs.imap.get(inum).Addr
			fs.imap.setLocation(inum, addr, uint16(slot))
			if err := fs.decInoBlockRef(prev); err != nil {
				return err
			}
		}
		fs.inoBlockRefs[addr] = len(b.group)
	case layout.KindImap:
		old, fs.imap.blockAddr[e.Inum] = fs.imap.blockAddr[e.Inum], addr
	case layout.KindSegUsage:
		old, fs.usage.blockAddr[e.Inum] = fs.usage.blockAddr[e.Inum], addr
	case layout.KindDirLog:
		fs.dirlogAddrs = append(fs.dirlogAddrs, addr)
	}
	if old != layout.NilAddr {
		if err := fs.decLive(old); err != nil {
			return err
		}
	}
	return fs.incLive(addr)
}

// encode is Phase 2 of writeBatch for a late-bound block: it encodes into
// buf, every byte of it, what the block's entry names, as placement left it.
func (fs *FS) encode(b *stagedBlock, buf []byte) error {
	switch e := b.entry; e.Kind {
	case layout.KindIndirect:
		return b.file.encodePtr(buf, e.BlockNo)
	case layout.KindInode:
		var inos [layout.InodesPerBlock]*layout.Inode
		for i, inum := range b.group {
			inos[i] = &fs.icache.get(inum).ino // staging loaded it, and only removeFile evicts
		}
		return layout.EncodeInodeBlockTo(buf, inos[:len(b.group)])
	case layout.KindImap:
		return fs.imap.encodeBlock(buf, int(e.Inum))
	case layout.KindSegUsage:
		return fs.usage.encodeBlock(buf, int(e.Inum))
	}
	return fmt.Errorf("%w: staged %v block has no content", ErrCorrupt, b.entry.Kind)
}

// tracePartialWrite emits one log.write event for a partial-segment write
// when a sink is attached; the counters it breaks down live in Stats.
func (fs *FS) tracePartialWrite(sumAddr int64, batch []stagedBlock) {
	if !fs.tr.Tracing() {
		return
	}
	kinds := map[string]int64{"summary": layout.BlockSize}
	var cleanerBytes int64
	for i := range batch {
		kinds[batch[i].entry.Kind.String()] += layout.BlockSize
		if batch[i].cleaner {
			cleanerBytes += layout.BlockSize
		}
	}
	fs.tr.Emit(obs.Event{
		Kind: obs.KindLogWrite,
		Log: &obs.LogWrite{
			Seg:          fs.segs.head,
			Addr:         sumAddr,
			Blocks:       1 + len(batch),
			BytesByKind:  kinds,
			CleanerBytes: cleanerBytes,
			Recovery:     fs.recovering(),
		},
	})
}

// flushLog stages every buffered modification — file data and indirect
// blocks, then directory operation log records, then packed inodes — and
// writes them to the log. Section 4.2 requires the records to precede the
// directory and inode blocks they describe; as a directory block is reached
// only through its inode, preceding the inodes is enough (DESIGN.md §4).
func (fs *FS) flushLog() error {
	if err := fs.failIfDegraded(); err != nil {
		return err
	}
	if err := fs.flushStages(); err != nil {
		// A failed flush tears the in-memory staging state: the batch
		// being written was already placed (block pointers and usage
		// accounting reference addresses that now hold garbage) and is
		// no longer queued anywhere, so a retry would trivially
		// "succeed" and claim durability for data that never reached
		// the disk. Degrade (sticky read-only) so the torn state can
		// never be flushed or checkpointed; the on-disk image up to the
		// last completed write stays valid and recovers on remount.
		// ErrNoSpace is the exception: it is raised before the current
		// batch is placed, the staged blocks all remain queued, and the
		// flush is retryable once the cleaner frees segments.
		if !errors.Is(err, ErrNoSpace) {
			fs.degrade("flush", fmt.Sprintf("log flush failed with staged state partially placed: %v", err))
		}
		return err
	}
	if fs.relocatedSinceCp {
		// A write-fault relocation left a hole in the on-disk log:
		// roll-forward stops at the retired segment's refused write and
		// cannot thread past it to the replayed batches. Until a
		// checkpoint commits the new head (and the quarantine entry) as
		// the recovery root, nothing covered by this flush may be
		// acknowledged — so the NVRAM keeps its redo records and the
		// disk durability epoch does not advance here; checkpointLocked
		// performs both once the region write lands.
		if !fs.inCheckpoint() {
			return fs.checkpointLocked()
		}
		return nil
	}
	// Everything acknowledged so far is now recoverable by roll-forward,
	// so the NVRAM redo records are no longer needed.
	fs.nvClear()
	// Close the commit epoch: every operation completed before this
	// flush is durable (up to roll-forward), so Sync callers whose
	// epoch this covers are satisfied. A flush that runs in the middle
	// of an operation (writeAt's buffer-full flush) does not cover that
	// operation — stageSeq is only bumped at operation end.
	fs.flushedSeq.Store(fs.stageSeq.Load())
	fs.gate.flushed(fs.stagedBlocks())
	if fs.checkpointDue() && !fs.inCheckpoint() {
		return fs.checkpointLocked()
	}
	return nil
}

// flushStages runs the staging pipeline and the partial-segment writes
// of one log flush. On error the caller must treat the staging state as
// torn (see flushLog) unless the error is ErrNoSpace.
func (fs *FS) flushStages() error {
	if err := fs.stageDataBlocks(); err != nil {
		return err
	}
	// Both metadata stages walk the same dirty-inode set in the same
	// order (nothing between them adds to it): sort it once.
	inums := fs.dirtyInodes.sorted()
	fs.stageIndirectBlocks(inums)
	if err := fs.stageDirOps(); err != nil {
		return err
	}
	if err := fs.stageInodeBlocks(inums); err != nil {
		return err
	}
	if err := fs.flushPending(); err != nil {
		return err
	}
	fs.dirtyInodes.reuse(inums) // drained: no staged inode block views it
	return nil
}

// inCheckpoint reports whether a checkpoint is already in progress (the
// cpActive flag lives on the struct to stop recursion through flushLog).
func (fs *FS) inCheckpoint() bool { return fs.cpActive }

// stageDirOps encodes pending directory-operation-log records into dirlog
// blocks and stages them ahead of the inode blocks. An unencodable record
// is reported, never panicked over: the records are produced internally,
// but a corrupt one must not take the process down.
func (fs *FS) stageDirOps() error {
	ops := fs.dirLog.take()
	for len(ops) > 0 {
		blk, n, err := layout.EncodeDirOpLog(ops)
		if err != nil {
			return fmt.Errorf("%w: dirlog encode: %v", ErrCorrupt, err)
		}
		if n == 0 {
			return fmt.Errorf("%w: dirlog encode made no progress", ErrCorrupt)
		}
		age := fs.ticks.Load()
		fs.stage(stagedBlock{
			entry: layout.SummaryEntry{Kind: layout.KindDirLog},
			data:  blk,
			age:   age,
		})
		ops = ops[n:]
	}
	return nil
}

// stageDataBlocks stages the dirty file-cache blocks, sorted by inum and
// block number so files are packed densely and deterministically.
func (fs *FS) stageDataBlocks() error {
	if len(fs.dcache) == 0 {
		return nil
	}
	keys := make([]blockKey, 0, len(fs.dcache))
	for k := range fs.dcache {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b blockKey) int {
		return cmp.Or(cmp.Compare(a.inum, b.inum), cmp.Compare(a.bn, b.bn))
	})
	for _, k := range keys {
		data := fs.dcache[k]
		delete(fs.dcache, k)
		mi, err := fs.loadInode(k.inum)
		if err != nil {
			return err
		}
		version := fs.imap.get(k.inum).Version
		fs.stage(stagedBlock{
			entry:  layout.SummaryEntry{Kind: layout.KindData, Inum: k.inum, Version: version, BlockNo: k.bn},
			data:   data,
			pooled: true, // dcache buffers are pooled; reclaimed post-write
			age:    mi.ino.Mtime,
			file:   mi,
		})
	}
	return nil
}

// stageIndirectBlocks stages the dirty indirect blocks of the dirty
// inodes (inums, ascending), each file's in eachDirtyPtr's order, so that
// content dependencies always point at earlier staged blocks.
func (fs *FS) stageIndirectBlocks(inums []uint32) {
	for _, inum := range inums {
		mi := fs.icache.get(inum)
		if mi == nil {
			continue
		}
		version := fs.imap.get(inum).Version
		mi.eachDirtyPtr(func(role uint32) {
			fs.dirtyPtrs--
			fs.stage(stagedBlock{
				entry: layout.SummaryEntry{Kind: layout.KindIndirect, Inum: inum, Version: version, BlockNo: role},
				age:   mi.ino.Mtime,
				file:  mi,
			})
		})
	}
}

// stageInodeBlocks packs the dirty inodes (inums, ascending) into inode
// blocks and stages them. Placement updates the inode map, which dirties
// the covering map blocks for the next checkpoint; an mInode holds its
// inode inline for life, so the encoder sees each inode as placement
// leaves it.
func (fs *FS) stageInodeBlocks(inums []uint32) error {
	for start := 0; start < len(inums); start += layout.InodesPerBlock {
		group := inums[start:min(start+layout.InodesPerBlock, len(inums))]
		var age uint64
		for _, inum := range group {
			mi, err := fs.loadInode(inum)
			if err != nil {
				return err
			}
			age = max(age, mi.ino.Mtime)
		}
		fs.stage(stagedBlock{
			entry: layout.SummaryEntry{Kind: layout.KindInode, Inum: group[0], BlockNo: uint32(len(group))},
			age:   age,
			group: group,
		})
	}
	fs.dirtyInodes.clear()
	return nil
}
