package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// Mount opens an existing log-structured file system. Recovery follows
// Section 4: read the newer of the two checkpoint regions, initialize the
// in-memory structures from it, and (unless opts.NoRollForward) scan the
// log written since the checkpoint to recover as much information as
// possible, repairing directory/inode consistency with the directory
// operation log and adjusting segment utilizations.
func Mount(dev *disk.Disk, opts Options) (*FS, error) {
	phases := startPhases(dev, opts.Tracer, obs.CtrRecoveryPhasePrefix)
	fs, cp, err := openImage(dev, opts)
	if err != nil {
		return nil, err
	}
	fs.nextInum = cp.NextInum
	fs.segs.place(cp.HeadSeg, int64(cp.HeadOffset), cp.NextSeg)
	counted := fs.segStart(cp.HeadSeg)
	fs.mnt = &mounting{tail: &logTail{counted: [2]int64{counted, counted + int64(cp.HeadOffset)}, recount: make([]bool, fs.nsegs)}}
	fs.mnt.tail.flag(cp.HeadSeg)
	fs.writeSeq = cp.WriteSeq
	fs.dirLog.seq = cp.DirLogSeq
	fs.ticks.Store(cp.Timestamp)

	// Load the inode map and segment usage table from the addresses in
	// the checkpoint region.
	if len(cp.ImapAddrs) != len(fs.imap.blockAddr) || len(cp.UsageAddrs) != len(fs.usage.blockAddr) {
		return nil, fmt.Errorf("%w: checkpoint has %d imap + %d usage blocks, want %d + %d",
			ErrCorrupt, len(cp.ImapAddrs), len(cp.UsageAddrs), len(fs.imap.blockAddr), len(fs.usage.blockAddr))
	}
	copy(fs.imap.blockAddr, cp.ImapAddrs)
	copy(fs.usage.blockAddr, cp.UsageAddrs)
	fs.loadTable("imap-load", "inode map", cp.ImapAddrs, fs.imap.loadBlock)
	fs.loadTable("usage-load", "segment usage", cp.UsageAddrs, fs.usage.loadBlock)
	phases.end("cpload")

	// Kept, not copied: until the second rebuild replaces it, nothing calls
	// decInoBlockRef or places an inode block (roll-forward only reads).
	fs.rebuildInoBlockRefs()
	refsBefore := fs.inoBlockRefs
	fs.rebuildFreeInums()
	fs.mounted = true

	var dirops []layout.DirOp
	if !fs.opts.NoRollForward {
		dirops, err = fs.rollForwardScan(cp, fs.mnt.tail)
		if err != nil {
			return nil, err
		}
	}
	phases.end("rollforward")

	fs.segs.rebuild(fs.usage, fs.mnt.tail.recount)

	// A degraded mount stops here as far as repair goes: the in-memory
	// metadata is incomplete, so usage accounting, directory repair and
	// the recovery checkpoint would all act on wrong state — and the file
	// system must never write again anyway. Reads of intact files still
	// work.
	if fs.degraded.Load() {
		fs.mnt = nil
		return fs, nil
	}

	// The scan moved inodes; refresh the reference counts, then release
	// the inode blocks the scan fully superseded. The repair pass below
	// maintains the counts incrementally, so this runs exactly once.
	fs.rebuildInoBlockRefs()
	for addr := range refsBefore {
		if fs.inoBlockRefs[addr] == 0 {
			if err := fs.decLive(addr); err != nil {
				return nil, err
			}
		}
	}

	// What the repair pass itself writes joins the tail (writeBatch).
	if !fs.opts.NoRollForward {
		fs.readDirs(dirops)
		if err := fs.applyDirOps(dirops); err != nil {
			return nil, err
		}
	}
	fs.rebuildFreeInums()
	phases.end("dirops")

	// Recompute exact utilizations for every segment touched since the
	// checkpoint (Section 4.2: "the roll-forward code also adjusts the
	// utilizations in the segment usage table").
	if err := fs.recomputeUsage(cp.HeadSeg); err != nil {
		return nil, err
	}
	phases.end("usage")

	// The repair passes above may themselves have tripped over
	// unrecoverable metadata; re-check before committing anything.
	if fs.degraded.Load() {
		fs.mnt = nil
		return fs, nil
	}

	if !fs.opts.NoRollForward {
		// Commit the recovered state (Section 4.2: the recovery program
		// appends the changed directories, inodes, inode map and segment
		// usage table blocks to the log and writes a new checkpoint).
		if err := fs.checkpointLocked(); err != nil {
			return nil, err
		}
		if fs.tr.Tracing() {
			fs.tr.Emit(obs.Event{
				Kind: obs.KindRollForward,
				RollForward: &obs.RollForward{
					Writes: fs.stats.RollForwardWrites,
					DirOps: len(dirops),
				},
			})
		}
	}
	// Replay the battery-backed write buffer, if one is attached: the
	// operations it holds were acknowledged but had not reached the log
	// when the crash happened (Section 2.1).
	phases.end("commit")
	fs.mnt.nvReplay = true
	if err := fs.replayNVRAM(); err != nil {
		return nil, err
	}
	fs.mnt = nil
	if fs.opts.NVRAM != nil {
		phases.end("nvreplay")
	}
	fs.startCommitter()
	return fs, nil
}

// loadTable reads the blocks of a checkpointed table — the inode map or the
// segment usage table — from the addresses the checkpoint region gives,
// blocks adjacent on disk (one checkpoint wrote them side by side) in one
// request. A block that cannot be read or fails its checksum is
// unrecoverable metadata: mount continues in degraded read-only mode with
// that block's entries missing rather than failing outright, so the
// unaffected files stay readable.
func (fs *FS) loadTable(label, what string, addrs []int64, load func(buf []byte, i int) error) {
	run := logRun{fs: fs}
	run.readRuns(addrs, fs.dev.Geometry().ReadThroughBlocks(), layout.NilAddr, func(k int, buf []byte, err error) {
		if err != nil {
			fs.degrade(label, fmt.Sprintf("%s block %d at %d unreadable: %v", what, k, addrs[k], err))
		} else if err := load(buf, k); err != nil {
			fs.tr.Add(obs.CtrCorruptBlocks, 1)
			fs.quarantineSeg(fs.segOf(addrs[k]))
			fs.degrade(label, fmt.Sprintf("%s block %d at %d corrupt: %v", what, k, addrs[k], err))
		}
	})
}

// openImage is the common front of Mount and SalvageImage. It attaches
// the tracer before the first device request, reads the superblock — the
// geometry comes from it, not the caller — and builds the FS; then it reads
// the newest valid checkpoint region and takes from it the quarantine list
// (restored before anything walks segments: the cleaner and allocator must
// never touch a withdrawn segment, even during recovery itself) and the
// checkpoint sequence. When no region is valid the FS is still returned,
// with the error, for salvage to work on.
func openImage(dev *disk.Disk, opts Options) (*FS, *layout.Checkpoint, error) {
	opts = opts.withDefaults()
	attachTracer(dev, opts.Tracer)
	sbBuf, err := dev.ReadBlock(0)
	if err != nil {
		return nil, nil, err
	}
	sb, err := layout.DecodeSuperblock(sbBuf)
	if err != nil {
		return nil, nil, err
	}
	opts.SegmentBlocks = int(sb.SegmentBlocks)
	opts.MaxInodes = int(sb.MaxInodes)
	fs := newFS(dev, opts, sb)
	cp, which, err := readBestCheckpoint(dev, sb, mediaRetries)
	if err != nil {
		return fs, nil, err
	}
	var restored int64
	for _, s := range cp.Quarantined {
		if fs.segs.quarantine(s) {
			restored++
		}
	}
	fs.tr.Add(obs.CtrQuarantinedSegs, restored)
	fs.cpSeq = cp.Seq
	fs.cpWhich = 1 - which
	return fs, cp, nil
}

// readBestCheckpoint reads both checkpoint regions and returns the valid
// one with the newest sequence number (Section 4.1). A region that
// cannot be read because of a media fault is treated like a torn one:
// the other region decides. Only if neither region yields a valid
// checkpoint does the mount fail.
func readBestCheckpoint(dev *disk.Disk, sb *layout.Superblock, retries int) (*layout.Checkpoint, int, error) {
	var best *layout.Checkpoint
	which := -1
	for i := 0; i < 2; i++ {
		buf := make([]byte, int(sb.CheckpointBlocks)*layout.BlockSize)
		var err error
		for attempt := 0; ; attempt++ {
			if err = dev.Read(sb.CheckpointAddr[i], buf); err == nil ||
				!errors.Is(err, disk.ErrMediaRead) || attempt >= retries {
				break
			}
		}
		if err != nil {
			if errors.Is(err, disk.ErrMediaRead) {
				continue // unreadable region; the other may still be valid
			}
			return nil, 0, err
		}
		cp, err := layout.DecodeCheckpoint(buf)
		if err != nil {
			continue // torn or never written
		}
		if best == nil || cp.Seq > best.Seq {
			best = cp
			which = i
		}
	}
	if best == nil {
		return nil, 0, ErrNoCheckpoint
	}
	return best, which, nil
}

func (fs *FS) rebuildInoBlockRefs() {
	fs.inoBlockRefs = make(map[int64]int)
	for _, e := range fs.imap.entries {
		if e.Allocated() {
			fs.inoBlockRefs[e.Addr]++
		}
	}
}

// rebuildFreeInums lists the free inums in ascending order, a valid heap.
func (fs *FS) rebuildFreeInums() {
	fs.freeInums = fs.freeInums[:0]
	for inum := RootInum + 1; inum < fs.nextInum; inum++ {
		if !fs.imap.get(inum).Allocated() {
			fs.freeInums = append(fs.freeInums, inum)
		}
	}
}

// mounting is what Mount holds while it recovers, and salvage while it
// commits (FS.mnt, nil otherwise). While it is set no flush clears the
// NVRAM, whose records replay still needs; short of that replay the FS is
// recovering: the head may advance into the cleaner's reserve, the epilogue
// does not clean, and writes count as RollForwardWrites (traced Recovery).
type mounting struct {
	tail     *logTail // what usage recomputation will count; nil once it has
	nvReplay bool     // replaying the NVRAM: the flushes are its own
}

// recovering reports whether a mount or salvage is rebuilding state (mounting).
func (fs *FS) recovering() bool { return fs.mnt != nil && !fs.mnt.nvReplay }

// logTail is the log written since the checkpoint as Mount holds it: read
// from the device once, by readTail, and consumed three times — by the
// search for the last complete flush, by the loop that applies it and by
// usage recomputation (DESIGN.md §4 "The tail is read once"). It is bounded
// by that log — 32 bytes per block described, plus its decoded inode and
// directory-log blocks — and gone when Mount returns.
type logTail struct {
	// recount flags the segments whose usage recomputeUsage will count from
	// the tail: the checkpoint's head and every segment the tail reaches.
	// Adjustments to what it recounts (recounted) wait until then. counted is
	// the one part of a flagged segment that is not recounted: the addresses
	// [counted[0], counted[1]) of the checkpoint's head segment, written
	// before the checkpoint and exact in its usage table.
	recount []bool
	counted [2]int64
	writes  []tailWrite
	slab    []layout.SummaryEntry // the writes' entries are cut from slabs like this
	metas   []tailMeta            // the writes' inode and dirlog blocks, back to back
}

// tailWrite is one valid partial write of the tail.
type tailWrite struct {
	pos       layout.LogPos // of its summary
	flags     uint8
	timestamp uint64
	entries   []layout.SummaryEntry
	nmeta     int // how many of logTail.metas are its blocks
}

// tailMeta is an inode or directory-log block as it came off the disk,
// decoded — or why there is none, for the apply loop to act on if it gets there.
type tailMeta struct {
	addr   int64
	inodes []layout.Inode
	ops    []layout.DirOp
	err    error
}

// flag marks seg, if it is one, for recount.
func (t *logTail) flag(seg int64) {
	if seg >= 0 && seg < int64(len(t.recount)) {
		t.recount[seg] = true
	}
}

// add appends a partial write whose summary is at pos; entries is copied.
func (t *logTail) add(pos layout.LogPos, entries []layout.SummaryEntry) *tailWrite {
	if cap(t.slab)-len(t.slab) < len(entries) {
		t.slab = make([]layout.SummaryEntry, 0, 8*layout.MaxSummaryEntries)
	}
	lo := len(t.slab)
	t.slab = append(t.slab, entries...)
	t.writes = append(t.writes, tailWrite{pos: pos, entries: t.slab[lo:len(t.slab):len(t.slab)]})
	return &t.writes[len(t.writes)-1]
}

// readTail walks the log thread written after cp and keeps every valid
// partial write (checksummed summary, matching write sequence). It returns
// where the thread ended and, if that was a summary it could not read, why.
//
// A partial write is one device request, its summary first, and the writer
// issues the next only after it has returned: a valid summary followed by
// another implies complete data. Only the inode and directory-log blocks
// need to be read, which keeps recovery time proportional to the number of
// files recovered rather than the volume of data (Table 3). Adjacent ones
// come off the disk in one request, together with the next summary when it
// follows them; the gaps between runs are data and are never read through.
// A block that cannot be had does not end the walk.
//
// The thread's final write is the one a crash can tear, and the device
// persists a prefix of a request it does not finish: it is complete when
// its last block is. That block and those the walk read are checked
// against their entries (one extra read at most, when the last block is of
// another kind); a torn write is dropped and the log resumes at its
// summary. A last block that cannot be had leaves the write undecided: the
// apply loop stops in front of it, as at any unreadable block of the tail.
func (fs *FS) readTail(cp *layout.Checkpoint, t *logTail) (layout.LogPos, error) {
	s := fs.getWalkScratch()
	defer fs.putWalkScratch(s)
	run := logRun{fs: fs}
	pos := layout.LogPos{Seg: cp.HeadSeg, Off: int64(cp.HeadOffset), NextSeg: cp.NextSeg, WriteSeq: cp.WriteSeq}
	w := layout.WalkThread(run.source(s), fs.segBase, fs.segBlocks, pos, math.MaxUint64, s)
	torn := false // a block of the current write does not match its entry
	for w.Next() {
		first := w.DataAddr()
		tw := t.add(w.Pos(), s.Entries)
		tw.flags, tw.timestamp = s.Flags, s.Timestamp
		torn = false
		run.readWanted(first, s.Entries, w.Ahead(), rollForwardReads, func(i int, block []byte, err error) {
			m := tailMeta{addr: first + int64(i), err: err}
			torn = torn || err == nil && layout.Checksum(block) != s.Entries[i].Sum
			if err == nil && s.Entries[i].Kind == layout.KindInode {
				m.inodes, m.err = layout.DecodeInodeBlock(block)
			} else if err == nil {
				m.ops, m.err = layout.DecodeDirOpLog(block)
			}
			t.metas = append(t.metas, m)
			tw.nmeta++
		})
	}
	_, err := fs.walkEnded(w.End())
	if len(t.writes) == 0 {
		return w.Pos(), err
	}
	last := &t.writes[len(t.writes)-1]
	if e := last.entries[len(last.entries)-1]; !torn && !rollForwardReads(e.Kind) {
		addr := fs.segStart(last.pos.Seg) + last.pos.Off + int64(len(last.entries))
		if rerr := fs.readRetry(addr, s.Blk[:]); rerr != nil {
			t.metas = slices.Insert(t.metas, len(t.metas)-last.nmeta, tailMeta{addr: addr, err: rerr})
			last.nmeta++
		} else {
			torn = layout.Checksum(s.Blk[:]) != e.Sum
		}
	}
	if torn {
		t.metas = t.metas[:len(t.metas)-last.nmeta]
		t.writes = t.writes[:len(t.writes)-1]
		return last.pos, err
	}
	return w.Pos(), err
}

// rollForwardScan incorporates the log written after the checkpoint, which
// readTail leaves in t: inode blocks update the inode map — which
// automatically incorporates the files' new data blocks — and
// directory-operation-log records are collected for the repair pass. The
// scan stops at the first hole in the log, and t keeps what was applied.
//
// When the mount will replay a non-empty NVRAM redo log, the scan instead
// stops after the newest transaction-end marker (SummaryFlagTxnEnd): a flush
// that was torn by the crash is discarded whole rather than applied
// partially. The NVRAM holds every operation since the last successful
// flush (records are cleared only when a flush completes), so the
// discarded tail is fully re-derived by replay — whereas a partially
// applied flush would leave the namespace ahead of the records and make
// in-order replay ambiguous. Without NVRAM the partial tail is kept: in
// that model recovering as much as possible is strictly better. Nor is
// anything discarded when the thread ended at an unreadable summary:
// complete flushes, whose NVRAM records are gone, may lie past it.
func (fs *FS) rollForwardScan(cp *layout.Checkpoint, t *logTail) ([]layout.DirOp, error) {
	// The log resumes at pos, in front of the first summary not (fully) applied.
	pos, endErr := fs.readTail(cp, t)
	mediaEnd := errors.Is(endErr, disk.ErrMediaRead)
	if endErr != nil && !mediaEnd {
		return nil, endErr
	}
	keep := len(t.writes)
	if nv := fs.opts.NVRAM; nv != nil && nv.Pending() > 0 && !mediaEnd {
		for keep > 0 && t.writes[keep-1].flags&layout.SummaryFlagTxnEnd == 0 {
			keep--
			pos = t.writes[keep].pos
		}
		fs.walkEnded(layout.EndSeqBound, nil)
	}
	// Sized by the tail's dirlog records, dirops take what the scan adds
	// without growing.
	ops := 0
	for _, m := range t.metas {
		ops += len(m.ops)
	}
	dirops := make([]layout.DirOp, 0, ops)
	sc := rollScan{fs: fs, fetched: make(map[int64][]byte)}
	metas := t.metas
walk:
	for i, tw := range t.writes[:keep] {
		first := fs.segStart(tw.pos.Seg) + tw.pos.Off + 1
		t.flag(tw.pos.Seg)
		// The summary's per-block checksums are remembered along the way
		// so later reads of these blocks verify without a chain walk.
		fs.sums.record(first, tw.entries)
		for _, m := range metas[:tw.nmeta] {
			if errors.Is(m.err, disk.ErrMediaRead) {
				fs.degrade("roll-forward", fmt.Sprintf("roll-forward %s block at %d unreadable: %v", tw.entries[m.addr-first].Kind, m.addr, m.err))
				keep, pos, mediaEnd = i, tw.pos, false
				break walk
			}
			if m.err != nil {
				return nil, fmt.Errorf("roll-forward %s block at %d: %w", tw.entries[m.addr-first].Kind, m.addr, m.err)
			}
			// Data, indirect, imap and usage blocks need no direct action:
			// inodes incorporate data and indirect blocks, and the
			// checkpoint regions are the authority for map blocks.
			if err := sc.recoverInodes(m.addr, m.inodes); err != nil {
				return nil, err
			}
			for _, op := range m.ops {
				if op.Seq >= cp.DirLogSeq {
					dirops = append(dirops, op)
					if op.Seq >= fs.dirLog.seq {
						fs.dirLog.seq = op.Seq + 1
					}
				}
			}
		}
		metas = metas[tw.nmeta:]
		fs.usage.noteWrite(tw.pos.Seg, tw.timestamp)
		if tw.timestamp > fs.ticks.Load() {
			fs.ticks.Store(tw.timestamp)
		}
	}
	if mediaEnd {
		// The scan cannot tell whether the log continued past the
		// unreadable summary: committed writes may be stranded beyond it.
		// Degrade rather than silently truncate the log.
		fs.degrade("roll-forward", fmt.Sprintf("roll-forward summary at %d unreadable: %v", fs.segStart(pos.Seg)+pos.Off, endErr))
	}
	t.writes, t.metas = t.writes[:keep], nil
	fs.segs.place(pos.Seg, pos.Off, pos.NextSeg)
	t.flag(pos.Seg)
	fs.writeSeq = pos.WriteSeq
	return dirops, nil
}

// rollForwardReads reports whether roll-forward needs the contents of a
// block of this kind.
func rollForwardReads(k layout.BlockKind) bool {
	return k == layout.KindInode || k == layout.KindDirLog
}

// rollScan is what one roll-forward scan holds so that it reads no block
// twice. It lives on rollForwardScan's stack and is bounded by the inodes of
// the log written since the checkpoint: nothing in it outlives Mount.
type rollScan struct {
	fs *FS
	// fetched holds the blocks usage accounting had to fetch one at a time,
	// by address: inode blocks from before the checkpoint that hold an
	// incarnation the scan replaces (one block often holds many — every
	// directory the checkpoint wrote), and the indirect blocks of the
	// inodes it meets, which each later incarnation of a growing file
	// mostly shares.
	fetched map[int64][]byte
}

func (sc *rollScan) fetch(addr int64) ([]byte, error) {
	if b, ok := sc.fetched[addr]; ok {
		return b, nil
	}
	b := make([]byte, layout.BlockSize)
	if err := sc.fs.readRetry(addr, b); err != nil {
		return nil, err
	}
	sc.fetched[addr] = b
	return b, nil
}

// recoverInodes incorporates the inodes of the packed inode block at addr,
// discovered during roll-forward: every inode that is at least as new as the
// inode map's version replaces the map entry, and the live-byte accounting
// of older segments is adjusted for the blocks the update superseded.
func (sc *rollScan) recoverInodes(addr int64, inodes []layout.Inode) error {
	fs := sc.fs
	for slot := range inodes {
		ino := &inodes[slot]
		if int(ino.Inum) >= fs.imap.maxInodes() {
			return fmt.Errorf("%w: recovered inum %d out of range", ErrCorrupt, ino.Inum)
		}
		e := fs.imap.get(ino.Inum)
		if ino.Version < e.Version {
			continue // stale incarnation of a deleted file
		}
		// The accounting reads blocks that are not the inode's own — the
		// block of the incarnation it replaces, indirect blocks. One the
		// medium will not give up costs the mount its write access, not
		// the file: a degraded mount never commits usage, so the inode is
		// installed all the same and the scan goes on.
		if err := sc.account(ino, e); err != nil {
			if !errors.Is(err, disk.ErrMediaRead) {
				return err
			}
			fs.degrade("roll-forward", fmt.Sprintf("roll-forward usage accounting for inum %d (inode block at %d): %v", ino.Inum, addr, err))
		}
		fs.imap.setLocation(ino.Inum, addr, uint16(slot))
		fs.imap.setVersion(ino.Inum, ino.Version)
		if ino.Inum >= fs.nextInum {
			fs.nextInum = ino.Inum + 1
		}
		// The decoded inode is the newest state seen so far; install it, or
		// replace the entry account has just read as previous, so the repair
		// pass works from memory instead of re-reading an inode block per file.
		if mi := fs.icache.get(ino.Inum); mi != nil {
			mi.replace(*ino)
		} else {
			fs.icache.put(ino.Inum, newMInode(*ino))
		}
	}
	return nil
}

// account adjusts segment usage for ino replacing the incarnation at inode
// map entry e: every block the old incarnation's map references — data
// blocks and the indirect blocks themselves — dies, and every block the
// new one's references is counted (segments being recomputed are skipped
// in both directions).
func (sc *rollScan) account(ino *layout.Inode, e layout.ImapEntry) error {
	ptrs := layout.PtrsFrom(sc.fetch)
	each := func(ino *layout.Inode, apply func(addr int64) error) error {
		return layout.WalkBlockMap(ino, ptrs,
			func(_ layout.BlockKind, _ uint32, addr int64) error { return apply(addr) })
	}
	if e.Allocated() {
		old, err := sc.previous(ino.Inum, e)
		if err != nil {
			return err
		}
		if err := each(old, sc.fs.decLive); err != nil {
			return err
		}
	}
	return each(ino, sc.fs.incLive)
}

// previous returns the incarnation of inum that inode map entry e points
// at. When the scan itself put it there it is still in the inode cache
// (recoverInodes installs the two together, and nothing else touches
// either while the scan runs); otherwise it is in a block written before
// the checkpoint, fetched once and decoded one slot at a time.
func (sc *rollScan) previous(inum uint32, e layout.ImapEntry) (*layout.Inode, error) {
	if mi := sc.fs.icache.get(inum); mi != nil {
		return &mi.ino, nil
	}
	buf, err := sc.fetch(e.Addr)
	if err != nil {
		return nil, err
	}
	b, err := layout.OpenInodeBlock(buf)
	if err != nil {
		return nil, fmt.Errorf("old inode block at %d: %w", e.Addr, err)
	}
	ino, ok := b.Inode(int(e.Slot))
	if !ok {
		return nil, fmt.Errorf("%w: inode slot %d of block %d", ErrCorrupt, e.Slot, e.Addr)
	}
	return &ino, nil
}

// incLive credits the block at addr — just placed, or pointed at by an inode
// roll-forward met — to its segment, unless recovery will recount it.
func (fs *FS) incLive(addr int64) error {
	seg := fs.segOf(addr)
	if seg < 0 || seg >= fs.nsegs {
		return fmt.Errorf("%w: block address %d outside segment area", ErrCorrupt, addr)
	}
	if fs.recounted(seg, addr) {
		return nil
	}
	return fs.usage.addLive(seg, layout.BlockSize)
}

// recounted reports whether recovery will recount the block at addr of
// segment seg, so that usage adjustments against it are moot.
func (fs *FS) recounted(seg, addr int64) bool {
	if fs.mnt == nil || fs.mnt.tail == nil {
		return false
	}
	t := fs.mnt.tail
	return t.recount[seg] && (addr < t.counted[0] || addr >= t.counted[1])
}

// readDirs reads the directories the records name, for the repair pass, in
// one address-ordered sweep through gaps of ReadThroughBlocks() (DESIGN.md
// §4, "The repair sweep"): those whose blocks memory alone places (inode
// recovered, block map loaded, sums recorded from the tail), each installed
// if its blocks all verify and it decodes. Any other is left to loadDir,
// which reports a fault as always: the sweep counts and quarantines nothing.
func (fs *FS) readDirs(ops []layout.DirOp) {
	type dirBlock struct {
		addr int64
		dir  int    // in inums and data
		dst  []byte // its part of the directory's contents
	}
	var inums []uint32
	var data [][]byte // each directory's contents, nil once a block fails
	var blocks []dirBlock
	var seen inumSet
	sweep := func(inum uint32) {
		mi := fs.icache.get(inum)
		if mi == nil || mi.dir != nil || mi.ino.Type != layout.FileTypeDir || !fs.imap.get(inum).Allocated() || !seen.add(inum) {
			return
		}
		d, n := make([]byte, mi.ino.Size), len(blocks)
		for o := 0; o < len(d); o += layout.BlockSize {
			addr, ok := mi.loadedAddr(uint32(o / layout.BlockSize))
			if _, summed := fs.sums.peek(addr); !ok || !summed {
				blocks = blocks[:n]
				return
			}
			blocks = append(blocks, dirBlock{addr, len(data), d[o:min(o+layout.BlockSize, len(d))]})
		}
		inums, data = append(inums, inum), append(data, d)
	}
	for _, op := range ops {
		sweep(op.Dir)
		sweep(op.Dir2) // 0, no inode, unless a rename's
	}
	slices.SortFunc(blocks, func(a, b dirBlock) int { return cmp.Compare(a.addr, b.addr) })
	addrs := make([]int64, len(blocks))
	for k, b := range blocks {
		addrs[k] = b.addr
	}
	run := logRun{fs: fs}
	run.readRuns(addrs, fs.dev.Geometry().ReadThroughBlocks(), layout.NilAddr, func(k int, blk []byte, err error) {
		if sum, _ := fs.sums.peek(addrs[k]); err != nil || layout.Checksum(blk) != sum {
			data[blocks[k].dir] = nil
			return
		}
		fs.tr.Add(obs.CtrVerifiedBlocks, 1)
		fs.cacheCopy(addrs[k], blk)
		copy(blocks[k].dst, blk)
	})
	ents := make([][]layout.DirEntry, len(data)) // each one's, in one allocation
	for i, d := range data {
		if entries, err := layout.DecodeDirectory(d); d != nil && err == nil {
			ents[i] = entries
			fs.icache.get(inums[i]).dir = &ents[i]
		}
	}
}

// applyDirOps replays the directory operation log against the recovered
// state, restoring consistency between directory entries and inode
// reference counts (Section 4.2). Operations whose inode never reached
// the log are undone (the directory entry is removed).
//
// An undone rename leaves the file's entry at its old location, so later
// records for the same file reference a (directory, name) that no longer
// matches where the entry actually is. The displaced map tracks the
// entry's effective location so those records chase it: a remove after
// an undone rename must delete the old-name entry (not leave it dangling
// at a freed inode), and a second rename must move it from there.
// Records meet directory entries in a hash join (dirNames), not a search.
func (fs *FS) applyDirOps(ops []layout.DirOp) error {
	slices.SortStableFunc(ops, func(a, b layout.DirOp) int { return cmp.Compare(a.Seq, b.Seq) })
	names := dirNames{}
	type loc struct {
		dir  uint32
		name string
	}
	displaced := map[uint32]loc{}
	srcOf := func(op *layout.DirOp) loc {
		if l, ok := displaced[op.Inum]; ok {
			return l
		}
		return loc{op.Dir, op.Name}
	}
	for i := range ops {
		op := &ops[i]
		switch op.Op {
		case layout.DirOpCreate, layout.DirOpLink:
			delete(displaced, op.Inum)
			if err := fs.repairEntry(names, op.Dir, op.Name, op.Inum, op.Version, op.NewNlink); err != nil {
				return err
			}
		case layout.DirOpUnlink:
			src := srcOf(op)
			delete(displaced, op.Inum)
			if !fs.imap.get(src.dir).Allocated() {
				// The entry lives (if anywhere) in a directory that never
				// reached the log; the unlink is undone along with it.
				continue
			}
			if err := fs.repairRemoveEntry(names, src.dir, src.name, op.Inum); err != nil {
				return err
			}
			if err := fs.repairNlink(op.Inum, op.Version, op.NewNlink); err != nil {
				return err
			}
		case layout.DirOpRename:
			// A rename completes only if both the file's inode and the
			// destination directory are recoverable; otherwise it is
			// undone so the file stays reachable under its old name.
			src := srcOf(op)
			ie := fs.imap.get(op.Inum)
			inodeOK := ie.Allocated() && ie.Version == op.Version
			dstOK := fs.imap.get(op.Dir2).Allocated()
			if inodeOK && !dstOK {
				if err := fs.repairEntry(names, src.dir, src.name, op.Inum, op.Version, op.NewNlink); err != nil {
					return err
				}
				displaced[op.Inum] = src
				continue
			}
			delete(displaced, op.Inum)
			if err := fs.repairRemoveEntry(names, src.dir, src.name, op.Inum); err != nil {
				return err
			}
			if err := fs.repairEntry(names, op.Dir2, op.Name2, op.Inum, op.Version, op.NewNlink); err != nil {
				return err
			}
		}
	}
	return nil
}

// repairEntry ensures directory dir maps name to inum (when the recorded
// incarnation of the inode exists) or drops the entry (when the inode
// never reached the log), and sets the inode's reference count. The
// version check stops a record from acting on a newer incarnation of a
// reused inode number. A name it adds is cloned so as not to pin a dirlog.
func (fs *FS) repairEntry(names dirNames, dir uint32, name string, inum, version uint32, nlink uint16) error {
	if !fs.imap.get(dir).Allocated() {
		return nil // the directory itself was never recovered
	}
	entries, err := fs.loadDir(dir)
	if err != nil {
		return err
	}
	ie := fs.imap.get(inum)
	exists := ie.Allocated() && ie.Version == version
	idx := names.index(dir, entries, name)
	switch {
	case exists && idx < 0:
		name = strings.Clone(name)
		names[dir][name] = len(entries)
		err = fs.saveDir(dir, append(entries, layout.DirEntry{Inum: inum, Name: name}), len(entries))
	case !exists && idx >= 0:
		delete(names, dir)
		err = fs.saveDir(dir, slices.Delete(entries, idx, idx+1), idx)
	case exists && idx >= 0 && entries[idx].Inum != inum:
		entries[idx].Inum = inum
		err = fs.saveDir(dir, entries, idx)
	}
	if err != nil {
		return err
	}
	if exists {
		return fs.repairNlink(inum, version, nlink)
	}
	return nil
}

// repairRemoveEntry ensures the (dir, name) entry naming inum is absent.
func (fs *FS) repairRemoveEntry(names dirNames, dir uint32, name string, inum uint32) error {
	if !fs.imap.get(dir).Allocated() {
		return nil
	}
	entries, err := fs.loadDir(dir)
	if err != nil {
		return err
	}
	if i := names.index(dir, entries, name); i >= 0 && entries[i].Inum == inum {
		delete(names, dir)
		return fs.saveDir(dir, slices.Delete(entries, i, i+1), i)
	}
	return nil
}

// dirNames maps each directory the repair pass touched to the index of each
// name in its entries. An append adds its name; a delete (rare: only a torn
// last flush needs one) drops the map, rebuilt on the directory's next touch.
type dirNames map[uint32]map[string]int

// index returns the position of name in directory dir's entries, or -1; of
// a name held twice (a corrupt directory) the first, as dirIndex does.
func (n dirNames) index(dir uint32, entries []layout.DirEntry, name string) int {
	m := n[dir]
	if m == nil {
		m = make(map[string]int, len(entries))
		for i := len(entries) - 1; i >= 0; i-- {
			m[entries[i].Name] = i
		}
		n[dir] = m
	}
	if i, ok := m[name]; ok && i < len(entries) && entries[i].Name == name {
		return i
	} else if ok { // a hit the entries do not confirm: rebuild
		delete(n, dir)
		return n.index(dir, entries, name)
	}
	return -1
}

// repairNlink sets the inode's reference count, deleting the file when it
// reaches zero. Records for stale incarnations of a reused inum are
// ignored.
func (fs *FS) repairNlink(inum, version uint32, nlink uint16) error {
	e := fs.imap.get(inum)
	if !e.Allocated() || e.Version != version {
		return nil
	}
	if nlink == 0 {
		return fs.removeFile(inum)
	}
	mi, err := fs.loadInode(inum)
	if err != nil {
		return err
	}
	if mi.ino.Nlink != nlink {
		mi.ino.Nlink = nlink
		fs.markInodeDirty(inum)
	}
	return nil
}

// recomputeUsage gives every segment in the tail's recount set its exact
// live-byte count without reading anything: the liveness, against the
// recovered metadata, of every block the tail's partial writes describe
// there. The checkpoint's head segment, counted, adds that to what the
// checkpointed table says of the part written before the checkpoint, which
// decLive and incLive have kept exact since (recounted). Then it drops the
// tail, and with it the recount.
func (fs *FS) recomputeUsage(counted int64) error {
	t := fs.mnt.tail
	for seg, flagged := range t.recount {
		if flagged && int64(seg) != counted {
			fs.usage.entries[seg].LiveBytes = 0
		}
	}
	for _, tw := range t.writes {
		if !t.recount[tw.pos.Seg] {
			continue // written by the repair pass into a fresh head, and counted as it went
		}
		first := fs.segStart(tw.pos.Seg) + tw.pos.Off + 1
		for i, e := range tw.entries {
			live, err := fs.blockLive(e, first+int64(i))
			if err != nil {
				return err
			}
			if live {
				if err := fs.usage.addLive(tw.pos.Seg, layout.BlockSize); err != nil {
					return err
				}
			}
		}
	}
	fs.mnt.tail = nil
	return nil
}
