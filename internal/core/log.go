package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// stagedBlock is one block queued for the next log write. Content is
// either fixed (data) or produced late by encode, after every block in the
// flush has been assigned its address — which is how self-describing
// metadata such as the segment usage table captures its own placement.
type stagedBlock struct {
	entry   layout.SummaryEntry
	data    []byte
	encode  func() ([]byte, error)
	placed  func(addr int64) error
	age     uint64
	cleaner bool // written on behalf of the cleaner (for stats)
	summed  bool // entry.Sum is already data's CRC (a verified cleaner copy)
	// pooled marks data as a bufpool buffer owned by the staging queue
	// (dirty file blocks, cleaner live copies): flushPending returns it
	// to the pool once the device write that covers it succeeds. On a
	// degrading flush failure the buffer is leaked to the GC instead —
	// the torn staging state must never feed the freelist.
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
			// torn — with a background cleaner, writer backpressure happens
			// in the epilogue (waitForCleanSegments), at an operation
			// boundary; here the cleaner reserve is only a hard backstop.
			privileged := fs.inCleaner || fs.inRecovery || fs.cpActive || fs.cleanerOwner
			if err := fs.segs.advance(fs.usage, fs.now(), privileged); err != nil {
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
		// Written: the placed/encode closures pin inodes and must not
		// outlive the flush in the queue's backing array.
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

// writeBatch runs the two-phase partial-segment write of one batch at the
// current log head: Phase 1 assigns addresses and updates every pointer
// and accounting entry, Phase 2 encodes contents and issues the device
// writes (data before the summary that describes it). A media write error
// return leaves the batch placed at the refused addresses; the caller
// relocates the head and calls writeBatch again, which re-places and
// re-encodes everything against the new segment.
func (fs *FS) writeBatch(batch []stagedBlock) error {
	n := len(batch)
	head := fs.segs.head
	sumAddr := fs.segStart(head) + fs.segs.headOff
	now := fs.now()

	// Phase 1: assign addresses and update all pointers/accounting.
	for i := range batch {
		addr := sumAddr + 1 + int64(i)
		if batch[i].placed != nil {
			if err := batch[i].placed(addr); err != nil {
				return err
			}
		}
		if err := fs.incLive(addr); err != nil {
			return err
		}
		fs.rc.drop(addr)
	}
	fs.usage.noteWrite(head, now)
	fs.rc.drop(sumAddr)

	// Phase 2: encode contents (late-bound encoders see final state) and
	// touch each block once: its CRC goes into its entry (a cleaner copy's
	// arrives verified), DataChecksum is folded from the entries, and the
	// staged buffers go to the device as they are, unmodified until it
	// returns. On every error return below the staged data stays with the
	// batch, which degrades (see flushLog) or is replayed (media errors).
	entries := make([]layout.SummaryEntry, n)
	vec := fs.wvec[:0]
	var dataSum uint32
	var youngest uint64
	for i := range batch {
		b := &batch[i]
		b.entry.Age = b.age
		content := b.data
		if content == nil {
			var err error
			if content, err = b.encode(); err != nil {
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
	summary := &layout.Summary{
		WriteSeq:     fs.writeSeq,
		Timestamp:    now,
		NextSeg:      fs.segs.next,
		YoungestAge:  youngest,
		DataChecksum: dataSum,
		Flags:        flags,
		Entries:      entries,
	}
	sumBlock, err := summary.Encode()
	if err != nil {
		return err
	}
	// The data blocks are written before the summary that describes
	// them: a summary on disk therefore implies its data is complete,
	// so roll-forward never needs to read (or checksum) file data —
	// recovery cost stays proportional to the number of files, not
	// the volume of data (Table 3). A crash between the two writes
	// leaves an unreachable, harmless tail — as does a media write
	// error: a failed data write leaves no summary behind, and a failed
	// summary write leaves data no summary describes, so the refused
	// partial write is invisible to roll-forward either way.
	if err = fs.writeRetry(sumAddr+1, vec...); err == nil {
		err = fs.writeRetry(sumAddr, sumBlock)
	}
	clear(vec) // keep the list for the next batch, not the blocks it views
	fs.wvec = vec[:0]
	if err != nil {
		return err
	}
	// The device copied everything out, so the pooled staged data buffers
	// go back to their freelist. This is the back half of the write path's
	// closed loop: prepareWrite / writeAt Get → dcache → staged → Put here.
	for i := range batch {
		if batch[i].pooled {
			fs.bpool.Put(batch[i].data)
			batch[i].data = nil
		}
	}
	// Remember each block's checksum so verify-on-read can check it
	// without re-reading the summary from disk.
	fs.sums.record(sumAddr+1, entries)
	if fs.tail != nil {
		fs.tail.add(layout.LogPos{Seg: head, Off: fs.segs.headOff}, entries)
	}

	fs.writeSeq++
	fs.segs.headOff += int64(1 + n)
	fs.bytesSinceCp += int64(1+n) * layout.BlockSize
	fs.stats.PartialWrites++
	fs.stats.SummaryBytes += layout.BlockSize
	var byKind [8]int64
	var cleanerBytes int64
	for i := range batch {
		b := &batch[i]
		fs.stats.addKind(b.entry.Kind, layout.BlockSize)
		byKind[b.entry.Kind] += layout.BlockSize
		if b.cleaner {
			fs.stats.CleanerWriteBytes += layout.BlockSize
			cleanerBytes += layout.BlockSize
		} else {
			fs.stats.NewDataBytes += layout.BlockSize
		}
		if fs.inRecovery {
			fs.stats.RollForwardWrites++
		}
	}
	fs.tracePartialWrite(sumAddr, n, byKind, cleanerBytes)
	return nil
}

// tracePartialWrite mirrors one partial-segment write into the obs
// layer: per-kind byte counters (which cross-check Stats.LogBytesByKind)
// and, when a sink is attached, one log.write event.
func (fs *FS) tracePartialWrite(sumAddr int64, n int, byKind [8]int64, cleanerBytes int64) {
	if fs.tr == nil {
		return
	}
	fs.tr.Add(obs.CtrLogPartialWrites, 1)
	fs.tr.Add(obs.CtrLogSummaryBytes, layout.BlockSize)
	for k, b := range byKind {
		if b > 0 {
			fs.tr.Add(obs.CtrLogBytesPrefix+layout.BlockKind(k).String(), b)
		}
	}
	if cleanerBytes > 0 {
		fs.tr.Add(obs.CtrCleanerWriteBytes, cleanerBytes)
	}
	if fs.inRecovery {
		fs.tr.Add(obs.CtrRollForwardWrites, int64(n))
	}
	if !fs.tr.Tracing() {
		return
	}
	kinds := map[string]int64{"summary": layout.BlockSize}
	for k, b := range byKind {
		if b > 0 {
			kinds[layout.BlockKind(k).String()] = b
		}
	}
	fs.tr.Emit(obs.Event{
		Kind: obs.KindLogWrite,
		Log: &obs.LogWrite{
			Seg:          fs.segs.head,
			Addr:         sumAddr,
			Blocks:       1 + n,
			BytesByKind:  kinds,
			CleanerBytes: cleanerBytes,
			Recovery:     fs.inRecovery,
		},
	})
}

// flushLog stages every buffered modification — directory operation log
// records first (Section 4.2 requires them to precede the directory and
// inode blocks they describe), then file data, indirect blocks and packed
// inodes — and writes them to the log.
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
	fs.dirtyBlocks = 0
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
	if err := fs.stageDirOps(); err != nil {
		return err
	}
	if err := fs.stageDataBlocks(); err != nil {
		return err
	}
	// Both metadata stages walk the same dirty-inode set in the same
	// order (nothing between them adds to it): sort it once.
	inums := sortedKeys(fs.dirtyInodes)
	fs.stageIndirectBlocks(inums)
	if err := fs.stageInodeBlocks(inums); err != nil {
		return err
	}
	return fs.flushPending()
}

// inCheckpoint reports whether a checkpoint is already in progress (the
// cpActive flag lives on the struct to stop recursion through flushLog).
func (fs *FS) inCheckpoint() bool { return fs.cpActive }

// stageDirOps encodes pending directory-operation-log records into dirlog
// blocks and stages them ahead of everything else. An unencodable record
// is reported, never panicked over: the records are produced internally,
// but a corrupt one must not take the process down.
func (fs *FS) stageDirOps() error {
	ops := fs.pendingOps
	fs.pendingOps = nil
	for len(ops) > 0 {
		blk, n, err := layout.EncodeDirOpLog(ops)
		if err != nil {
			return fmt.Errorf("%w: dirlog encode: %v", ErrCorrupt, err)
		}
		if n == 0 {
			return fmt.Errorf("%w: dirlog encode made no progress", ErrCorrupt)
		}
		age := fs.now()
		fs.stage(stagedBlock{
			entry: layout.SummaryEntry{Kind: layout.KindDirLog},
			data:  blk,
			age:   age,
			placed: func(addr int64) error {
				fs.dirlogAddrs = append(fs.dirlogAddrs, addr)
				return nil
			},
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
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].inum != keys[j].inum {
			return keys[i].inum < keys[j].inum
		}
		return keys[i].bn < keys[j].bn
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
			placed: func(addr int64) error {
				old, err := fs.setBlockAddr(mi, k.bn, addr)
				if err != nil {
					return err
				}
				if old != layout.NilAddr {
					return fs.decLive(old)
				}
				return nil
			},
		})
	}
	return nil
}

// stageIndirectBlocks stages the dirty indirect blocks of the dirty
// inodes (inums, ascending), each file's in eachDirtyPtr's order, so that
// content dependencies always point at earlier staged blocks.
func (fs *FS) stageIndirectBlocks(inums []uint32) {
	for _, inum := range inums {
		mi := fs.icache[inum]
		if mi == nil {
			continue
		}
		version := fs.imap.get(inum).Version
		mi.eachDirtyPtr(func(role uint32) {
			fs.stage(stagedBlock{
				entry:  layout.SummaryEntry{Kind: layout.KindIndirect, Inum: inum, Version: version, BlockNo: role},
				age:    mi.ino.Mtime,
				encode: func() ([]byte, error) { return mi.encodePtr(role) },
				placed: func(addr int64) error {
					cell := mi.parent(role)
					old := *cell
					*cell = addr
					if old != layout.NilAddr {
						return fs.decLive(old)
					}
					return nil
				},
			})
		})
	}
}

// stageInodeBlocks packs the dirty inodes (inums, ascending) into inode
// blocks and stages them. Placement updates the inode map, which dirties
// the covering map blocks for the next checkpoint.
func (fs *FS) stageInodeBlocks(inums []uint32) error {
	for start := 0; start < len(inums); start += layout.InodesPerBlock {
		end := start + layout.InodesPerBlock
		if end > len(inums) {
			end = len(inums)
		}
		group := inums[start:end]
		mis := make([]*mInode, len(group))
		var age uint64
		for i, inum := range group {
			mi, err := fs.loadInode(inum)
			if err != nil {
				return err
			}
			mis[i] = mi
			if mi.ino.Mtime > age {
				age = mi.ino.Mtime
			}
		}
		fs.stage(stagedBlock{
			entry: layout.SummaryEntry{Kind: layout.KindInode, Inum: group[0], BlockNo: uint32(len(group))},
			age:   age,
			encode: func() ([]byte, error) {
				inos := make([]*layout.Inode, len(mis))
				for i, mi := range mis {
					inos[i] = mi.ino
				}
				return layout.EncodeInodeBlock(inos)
			},
			placed: func(addr int64) error {
				for slot, inum := range group {
					old := fs.imap.get(inum).Addr
					fs.imap.setLocation(inum, addr, uint16(slot))
					if err := fs.decInoBlockRef(old); err != nil {
						return err
					}
				}
				fs.inoBlockRefs[addr] = len(group)
				return nil
			},
		})
	}
	for _, inum := range inums {
		delete(fs.dirtyInodes, inum)
	}
	return nil
}

// sortedKeys returns the members of a set in ascending order: whatever
// walks a map on its way to the device does so through this, so that the
// request order (and with it simulated time) is not Go's map order.
func sortedKeys[K cmp.Ordered](m map[K]bool) []K {
	if len(m) == 0 {
		return nil // the common case for an inode's level-2 set
	}
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
