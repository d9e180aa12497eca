package core

import (
	"errors"
	"fmt"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// checkpointLocked performs the paper's two-phase checkpoint
// (Section 4.1): first write out all modified information to the log —
// file data, indirect blocks, inodes, then the inode map and segment usage
// table blocks — and second, write a checkpoint region to one of the two
// fixed positions on disk, alternating between them.
func (fs *FS) checkpointLocked() error {
	fs.cpActive = true
	defer func() { fs.cpActive = false }()

	// Phase 1a: flush everything that lives above the metadata maps.
	if err := fs.flushLog(); err != nil {
		return err
	}

	// Segments cleaned since the last checkpoint become reusable once
	// this checkpoint commits; reflect their empty state in the table
	// now so the checkpointed usage table shows them clean.
	for _, s := range fs.segs.pending() {
		fs.usage.markClean(s)
	}

	// The directory operation log written since the last checkpoint is
	// superseded by this checkpoint: those blocks die now.
	for _, a := range fs.dirlogAddrs {
		if err := fs.decLive(a); err != nil {
			return err
		}
	}
	fs.dirlogAddrs = nil

	// Phase 1b: write the dirty inode map blocks and the whole segment
	// usage table to the log. Their encoders run after placement, so the
	// usage table captures its own new location (flushPending keeps all
	// its blocks in one partial write, so each captures the others' too).
	stageMapBlock := func(kind layout.BlockKind, i int, addrs []int64, encode func(int) ([]byte, error)) {
		fs.stage(stagedBlock{
			entry:  layout.SummaryEntry{Kind: kind, Inum: uint32(i)},
			age:    fs.now(),
			encode: func() ([]byte, error) { return encode(i) },
			placed: func(addr int64) error {
				old := addrs[i]
				addrs[i] = addr
				if old != layout.NilAddr {
					return fs.decLive(old)
				}
				return nil
			},
		})
	}
	encodeImap, encodeUsage := fs.imap.encodeBlock, fs.usage.encodeBlock
	for _, i := range fs.imap.dirtyBlocks() {
		stageMapBlock(layout.KindImap, i, fs.imap.blockAddr, encodeImap)
	}
	for i := 0; i < fs.usage.numBlocks(); i++ {
		stageMapBlock(layout.KindSegUsage, i, fs.usage.blockAddr, encodeUsage)
	}
	if err := fs.flushPending(); err != nil {
		return err
	}
	fs.imap.clearDirty()

	// Phase 2: write the checkpoint region. The region's trailer commits
	// the checkpoint; a torn write leaves the previous region current.
	// The quarantine list rides along so bad segments stay withdrawn
	// across mounts; if more segments are quarantined than the region
	// can record, the fact cannot be persisted — degrade rather than
	// silently forget a bad segment.
	quarantined := fs.QuarantinedSegments()
	if len(quarantined) > layout.MaxQuarantinedSegs {
		fs.degrade("quarantine-overflow", "quarantine list overflows the checkpoint region")
		return ErrDegraded
	}
	fs.cpSeq++
	cp := &layout.Checkpoint{
		Seq:         fs.cpSeq,
		Timestamp:   fs.now(),
		NextInum:    fs.nextInum,
		HeadSeg:     fs.segs.head,
		HeadOffset:  uint32(fs.segs.headOff),
		NextSeg:     fs.segs.next,
		WriteSeq:    fs.writeSeq,
		DirLogSeq:   fs.dirLogSeq,
		ImapAddrs:   fs.imap.blockAddr,
		UsageAddrs:  fs.usage.blockAddr,
		Quarantined: quarantined,
	}
	buf, err := cp.Encode(int(fs.sb.CheckpointBlocks))
	if err != nil {
		return err
	}
	// A region whose media refuses the write (after bounded retries) is
	// retired for the life of the mount and the checkpoint falls back to
	// the alternate region. With one region retired there is no
	// alternation left — every later checkpoint overwrites the survivor —
	// and only when both regions refuse writes does the file system
	// degrade: the last checkpoint that did land stays valid on disk.
	target := fs.cpWhich
	if fs.cpBad[target] {
		target = 1 - target
	}
	werr := fs.writeRetry(fs.sb.CheckpointAddr[target], buf)
	if errors.Is(werr, disk.ErrMediaWrite) {
		fs.cpBad[target] = true
		alt := 1 - target
		if fs.cpBad[alt] {
			fs.degrade("checkpoint-regions", fmt.Sprintf("both checkpoint regions unwritable: %v", werr))
			return fmt.Errorf("lfs: both checkpoint regions unwritable: %w", werr)
		}
		fs.tr.Add(obs.CtrMediaWriteRelocations, 1)
		target = alt
		werr = fs.writeRetry(fs.sb.CheckpointAddr[target], buf)
		if errors.Is(werr, disk.ErrMediaWrite) {
			fs.cpBad[target] = true
			fs.degrade("checkpoint-regions", fmt.Sprintf("both checkpoint regions unwritable: %v", werr))
			return fmt.Errorf("lfs: both checkpoint regions unwritable: %w", werr)
		}
	}
	if werr != nil {
		return werr
	}
	fs.cpWhich = 1 - target

	// The region write committed the new recovery root. If a write-fault
	// relocation had punched a hole in the log, everything replayed after
	// it is now reachable again — perform the acknowledgements flushLog
	// deferred (NVRAM clear and the disk durability epoch).
	if fs.relocatedSinceCp {
		fs.relocatedSinceCp = false
		fs.nvClear()
		fs.flushedSeq.Store(fs.stageSeq.Load())
		fs.gate.flushed(fs.stagedBlocks())
	}

	// The checkpoint is durable: release the cleaned segments for reuse.
	// A released segment's remembered checksums are dropped — its next
	// incarnation will record fresh ones.
	for _, s := range fs.segs.release() {
		fs.sums.drop(s)
	}
	fs.bytesSinceCp = 0
	fs.stats.Checkpoints++
	fs.tr.Add(obs.CtrCheckpoints, 1)
	if fs.tr.Tracing() {
		fs.tr.Emit(obs.Event{
			Kind:       obs.KindCheckpoint,
			Checkpoint: &obs.Checkpoint{Seq: fs.cpSeq, Bytes: int64(len(buf))},
		})
	}
	return nil
}
