// Last-resort salvage: rebuild a mountable file system from the log
// alone. Checkpoint + roll-forward recovery (recovery.go) assumes at
// least one checkpoint region survives; when both are gone, or when
// unrecoverable metadata pushed a mount into degraded read-only mode,
// everything needed to reconstruct the image is still redundantly
// encoded in the segment summaries the log already carries: every live
// block's kind, owner and per-block CRC, and every inode's address and
// version. The scavenger here walks every summary, reads the metadata and
// then only the data of the inode versions it tries, keeps the newest
// verifiable version of each inode, rebuilds the inode map, the segment
// usage table and the directory tree (reconnecting orphans under
// lost+found/), writes a fresh checkpoint into a surviving or
// re-initialized region, and clears degraded mode — the final rung of
// the fault ladder: retry → relocate → quarantine → degrade → repair.
package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// SalvageReport summarizes what a salvage run found and rebuilt.
type SalvageReport struct {
	// SegmentsScanned is the number of log segments examined.
	SegmentsScanned int
	// SummariesWalked counts valid partial-write summaries found.
	SummariesWalked int
	// BlocksVerified counts the log blocks salvage examined — every
	// inode, indirect and directory-log block, and the blocks of the inode
	// versions it tried — whose contents matched their summary's CRC.
	BlocksVerified int
	// BlocksDropped counts examined blocks discarded: unreadable, or
	// failing their per-block CRC. Blocks no tried version references are
	// never examined, so their damage costs nothing.
	BlocksDropped int
	// InodesRecovered is the number of inodes whose newest verifiable
	// version was accepted into the rebuilt image.
	InodesRecovered int
	// InodesLost counts inums seen in the log for which no version
	// survived with its full block chain intact.
	InodesLost int
	// Orphans counts recovered inodes that had lost every directory
	// reference and were reconnected under lost+found/.
	Orphans int
	// DirsRepaired counts directories whose entry lists had to be
	// rewritten (dangling or duplicate entries dropped, orphans added).
	DirsRepaired int
	// RootRecreated reports that no verifiable root directory survived
	// and a fresh empty one was synthesized.
	RootRecreated bool
}

// salvCand is one on-disk version of an inode found during the scan.
type salvCand struct {
	ino  *layout.Inode // a slot of its block's decoded inodes
	addr int64         // inode block address
	slot uint16
	seq  uint64 // WriteSeq of the partial write that carried it
}

// salvAccepted is the chosen (newest verifiable) version of an inode.
type salvAccepted struct {
	ino  *layout.Inode // once salvagePopulate installs it, the installed copy
	addr int64
	slot uint16
}

// salvAccepts holds the accepted versions by inum; none has a nil ino.
type salvAccepts []salvAccepted

// of returns inum's accepted version, or nil when it has none.
func (acc salvAccepts) of(inum uint32) *salvAccepted {
	if int(inum) < len(acc) && acc[inum].ino != nil {
		return &acc[inum]
	}
	return nil
}

// salvBlock is what salvage knows of a described block: its partial write's
// WriteSeq, its checksum and, once read, whether it matched.
type salvBlock struct {
	seq          uint64
	sum          uint32
	described    bool // a summary describes it: the fields above are set
	read, intact bool
	dir          bool // a directory version wants it: keep its bytes when read
}

// salvScan accumulates the full-log scan results.
type salvScan struct {
	// blocks holds a salvBlock per block of each segment a summary
	// describes, made on the first: the scan judges the metadata, the accept
	// pass the blocks of the inode versions it tries.
	blocks          [][]salvBlock
	base, segBlocks int64 // the segment area's geometry, to index blocks
	// ptrs holds the decoded pointers of every verified indirect block, so
	// that checking the candidates' block chains reads nothing again.
	ptrs map[int64][]int64
	// dirData holds the verified blocks directory versions wanted (dirContent).
	dirData   map[int64][]byte
	cands     []salvCand // every inode version the scan decoded (groupCands)
	maxVer    []uint32   // highest inode version seen per inum (groupCands)
	maxSeq    uint64
	maxDirSeq uint64 // highest dirlog op Seq + 1
	maxTime   uint64
}

// Salvage rebuilds the file system in place from its log — the repair
// rung of the fault ladder, and the only exit from degraded read-only
// mode. On success the image has a fresh checkpoint, a consistent
// directory tree with orphans reconnected under lost+found/, and
// degraded mode cleared; the file system is read-write again. Data
// whose blocks (or covering summaries) did not physically survive is
// dropped — salvage recovers exactly what the media still holds.
//
// A non-degraded file system may also be salvaged; its buffered state
// is checkpointed first so nothing acknowledged is lost.
func (fs *FS) Salvage() (*SalvageReport, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.mounted {
		return nil, ErrUnmounted
	}
	if !fs.degraded.Load() {
		// Make the on-disk log current so the scavenger sees every
		// acknowledged write. A failure here (including one that
		// degrades) is not fatal: salvage proceeds from whatever state
		// the log holds.
		_ = fs.checkpointLocked()
	}
	fs.salvageReset()
	return fs.salvageLocked(startPhases(fs.dev, fs.tr, obs.CtrSalvagePhasePrefix))
}

// SalvageImage salvages a file system directly from its device, without
// mounting it first — the entry point when Mount itself fails (both
// checkpoint regions lost, ErrNoCheckpoint). The superblock must be
// readable; everything else is rebuilt from the log. On success the
// returned FS is mounted read-write.
func SalvageImage(dev *disk.Disk, opts Options) (*FS, *SalvageReport, error) {
	// Whatever checkpoint survives has contributed the quarantine list
	// (known-bad segments must never be reused, even by the rebuilt image)
	// and the checkpoint sequence floor (the fresh checkpoint must outrank
	// any stale-but-valid region); having none is what salvage is for.
	phases := startPhases(dev, opts.Tracer, obs.CtrSalvagePhasePrefix)
	fs, _, err := openImage(dev, opts)
	if fs == nil {
		return nil, nil, fmt.Errorf("salvage: superblock: %w", err)
	}
	fs.mounted = true
	rep, err := fs.salvageLocked(phases)
	if err != nil {
		return nil, rep, err
	}
	fs.startCommitter()
	return fs, rep, nil
}

// salvageLocked is the scavenger shared by Salvage and SalvageImage.
// Caller holds fs.mu (or owns the FS exclusively, pre-publication), and its
// derived state is empty: SalvageImage's FS is fresh, Salvage resets its
// own. It re-derives everything from the log and commits the rebuilt image
// with a fresh checkpoint. phases meters the device from wherever the
// caller started it (SalvageImage: before the superblock read, which so
// counts towards the scan).
func (fs *FS) salvageLocked(phases *phaseMeter) (*SalvageReport, error) {
	fs.tr.Add(obs.CtrSalvageRuns, 1)
	rep := &SalvageReport{}
	// Acknowledged-but-unflushed state (if any) is part of what was lost;
	// the NVRAM redo log describing it must not replay over the rebuilt
	// image.
	fs.nvClear()
	sc := fs.salvageScan(rep)
	phases.end("scan")
	acc := fs.salvageAcceptInodes(sc, rep)
	return rep, fs.salvageRebuild(sc, acc, rep, phases)
}

func newSalvScan(fs *FS) *salvScan {
	return &salvScan{
		blocks:    make([][]salvBlock, fs.nsegs),
		base:      fs.segBase,
		segBlocks: fs.segBlocks,
		ptrs:      make(map[int64][]int64),
		dirData:   make(map[int64][]byte),
	}
}

// describe records the blocks a summary describes, from first on.
func (sc *salvScan) describe(first int64, seq uint64, entries []layout.SummaryEntry) {
	seg, off := (first-sc.base)/sc.segBlocks, (first-sc.base)%sc.segBlocks
	if sc.blocks[seg] == nil {
		sc.blocks[seg] = make([]salvBlock, sc.segBlocks)
	}
	for i, e := range entries {
		sc.blocks[seg][off+int64(i)] = salvBlock{seq: seq, sum: e.Sum, described: true}
	}
}

// block returns what is known of the block at addr, nil if no summary has it.
func (sc *salvScan) block(addr int64) *salvBlock {
	if seg := (addr - sc.base) / sc.segBlocks; addr >= sc.base && seg < int64(len(sc.blocks)) && sc.blocks[seg] != nil {
		if b := &sc.blocks[seg][(addr-sc.base)%sc.segBlocks]; b.described {
			return b
		}
	}
	return nil
}

// groupCands groups the candidates by inum with a counting sort, inum's at
// cands[at[inum]:at[inum+1]], and derives each inum's highest version. The
// tables are sized by the highest inum seen (the root at least), not by the
// inode map; maxVer reaches one further, the inum lost+found takes when
// every lower one is accepted (allocInum).
func (sc *salvScan) groupCands() (at []int32) {
	n := uint32(RootInum + 1)
	for _, c := range sc.cands {
		n = max(n, c.ino.Inum+1)
	}
	at, maxVer := make([]int32, n+1), make([]uint32, n+1)
	for _, c := range sc.cands {
		at[c.ino.Inum]++
		maxVer[c.ino.Inum] = max(maxVer[c.ino.Inum], c.ino.Version)
	}
	for i := 1; i < len(at); i++ {
		at[i] += at[i-1] // where each inum's group ends
	}
	grouped := make([]salvCand, len(sc.cands))
	for _, c := range sc.cands {
		at[c.ino.Inum]--
		grouped[at[c.ino.Inum]] = c
	}
	sc.cands, sc.maxVer = grouped, maxVer
	return at
}

// salvageScan walks the whole log, segment by segment, reading its
// metadata.
func (fs *FS) salvageScan(rep *SalvageReport) *salvScan {
	sc := newSalvScan(fs)
	scratch := fs.getWalkScratch()
	run := logRun{fs: fs}
	for seg := int64(0); seg < fs.nsegs; seg++ {
		rep.SegmentsScanned++
		fs.salvageScanSeg(seg, sc, rep, scratch, &run)
	}
	fs.putWalkScratch(scratch)
	return sc
}

// salvageRebuild turns the accepted inodes into a committed image: install
// them and derive what Mount derives from an inode map, rebuild usage and
// directories, pick a log head, checkpoint.
func (fs *FS) salvageRebuild(sc *salvScan, acc salvAccepts, rep *SalvageReport, phases *phaseMeter) error {
	// The scan harvested every chain there is.
	fs.sums.markAllHarvested()

	fs.salvagePopulate(acc, sc, rep)
	phases.end("accept")
	// Usage must be rebuilt before the directory pass: rewriting a
	// directory decrements the live count of each replaced or truncated
	// old block, which underflows against a still-empty table.
	fs.salvageRebuildUsage(acc, sc)
	if err := fs.salvageRebuildDirs(acc, sc, rep); err != nil {
		return err
	}
	// A fresh log head and successor come from the clean segments. Two
	// are required: the closing checkpoint needs somewhere to write the
	// rebuilt metadata, and the log needs a successor to thread to.
	fs.segs.rebuild(fs.usage, nil)
	if fs.segs.next == layout.NilAddr {
		return fmt.Errorf("salvage: %w: fewer than 2 clean segments left", ErrNoSpace)
	}
	phases.end("rebuild")

	fs.writeSeq, fs.dirLog.seq = max(fs.writeSeq, sc.maxSeq+1), max(fs.dirLog.seq, sc.maxDirSeq)
	if fs.ticks.Load() < sc.maxTime {
		fs.ticks.Store(sc.maxTime)
	}
	fs.bytesSinceCp, fs.relocatedSinceCp = 0, false

	// Exit degraded mode before committing: the rebuilt state is
	// consistent, and checkpointLocked's flush refuses to run degraded.
	// If the commit itself fails it re-degrades (or surfaces the error)
	// on its own evidence. The commit counts as recovery, as Mount's does
	// (mounting).
	fs.undegrade()
	fs.mnt = &mounting{}
	err := fs.checkpointLocked()
	fs.mnt = nil
	if err != nil {
		return fmt.Errorf("salvage: committing rebuilt state: %w", err)
	}
	fs.segs.rebuild(fs.usage, nil)
	phases.end("commit")

	fs.tr.Add(obs.CtrSalvageInodes, int64(rep.InodesRecovered))
	fs.tr.Add(obs.CtrSalvageOrphans, int64(rep.Orphans))
	fs.tr.Add(obs.CtrSalvageDropped, int64(rep.BlocksDropped))
	return nil
}

// salvageReset discards every piece of in-memory state derived from the
// (possibly broken) previous image, leaving the FS as newFS built it. The
// quarantine set is deliberately preserved: known-bad media stays withdrawn
// across repair.
func (fs *FS) salvageReset() {
	fs.initDerived()
	fs.dirLog.take()
	fs.dirtyPtrs, fs.dirlogAddrs, fs.pending = 0, nil, nil
	fs.segs.reset()
	fs.rc.reset()
	fs.ra.drop(fs.segBase, fs.nsegs*fs.segBlocks) // every block it may hold
}

// salvageScanSeg walks one segment's summary chain. It records every
// described block with its covering WriteSeq and checksum, but reads and
// judges only the blocks salvage decodes (salvageReads) — inode blocks give
// version candidates, indirect blocks pointers — by roll-forward's rule for
// runs (logRun.readWanted). Data waits for the accept pass. A segment with
// no valid first summary costs one block. Segments are scanned in address
// order, so a request that ends at this segment's end also takes the next
// segment's first summary, as one inside the chain takes the next summary.
func (fs *FS) salvageScanSeg(seg int64, sc *salvScan, rep *SalvageReport, s *layout.WalkScratch, run *logRun) {
	w := layout.WalkSegment(run.source(s), fs.segStart(seg), fs.segBlocks, s)
	for w.Next() {
		rep.SummariesWalked++
		sc.maxSeq, sc.maxTime = max(sc.maxSeq, s.WriteSeq), max(sc.maxTime, s.Timestamp)
		fs.usage.noteWrite(seg, s.Timestamp)
		first := w.DataAddr()
		sc.describe(first, s.WriteSeq, s.Entries)
		ahead := w.Ahead()
		if ahead == layout.NilAddr && seg+1 < fs.nsegs {
			ahead = fs.segStart(seg + 1)
		}
		run.readWanted(first, s.Entries, ahead, salvageReads, func(i int, blk []byte, err error) {
			addr := first + int64(i)
			if !fs.salvageJudge(sc, rep, addr, blk, err) {
				return
			}
			switch s.Entries[i].Kind {
			case layout.KindIndirect:
				sc.ptrs[addr] = layout.DecodeIndirectBlock(blk)
			case layout.KindInode:
				inos, err := layout.DecodeInodeBlock(blk)
				for slot := 0; err == nil && slot < len(inos); slot++ {
					if ino := &inos[slot]; ino.Inum >= RootInum && int(ino.Inum) < fs.imap.maxInodes() {
						sc.cands = append(sc.cands, salvCand{ino: ino, addr: addr, slot: uint16(slot), seq: s.WriteSeq})
					}
				}
			case layout.KindDirLog:
				if ops, err := layout.DecodeDirOpLog(blk); err == nil {
					for _, op := range ops {
						sc.maxDirSeq = max(sc.maxDirSeq, op.Seq+1)
					}
				}
			}
		})
	}
	if _, err := fs.walkEnded(w.End()); errors.Is(err, disk.ErrMediaRead) {
		fs.quarantineSeg(seg)
	}
}

// salvageReads reports whether salvage's scan decodes blocks of this kind.
func salvageReads(k layout.BlockKind) bool {
	return k == layout.KindInode || k == layout.KindIndirect || k == layout.KindDirLog
}

// salvageJudge settles the described block at addr from what reading it gave
// (its bytes, or why there are none) and reports whether it verified. A media
// error drops it and quarantines its segment, a checksum mismatch only drops
// it; a verified block joins the verify-on-read index, and its bytes are kept
// if a directory wants them.
func (fs *FS) salvageJudge(sc *salvScan, rep *SalvageReport, addr int64, blk []byte, err error) bool {
	b := sc.block(addr)
	b.read, b.intact = true, err == nil && layout.Checksum(blk) == b.sum
	if !b.intact {
		if errors.Is(err, disk.ErrMediaRead) {
			fs.quarantineSeg(fs.segOf(addr))
		}
		rep.BlocksDropped++
		return false
	}
	rep.BlocksVerified++
	e := [1]layout.SummaryEntry{{Sum: b.sum}}
	fs.sums.record(addr, e[:])
	if b.dir {
		sc.dirData[addr] = bytes.Clone(blk)
	}
	return true
}

// salvTrial is an inum the accept pass has not decided: cands[k] is the
// version on trial, need[lo:hi] the blocks of its chain still unread.
type salvTrial struct {
	inum      uint32
	cands     []salvCand
	k, lo, hi int
}

// salvageAcceptInodes picks, for every inum seen in the log, the newest
// candidate whose complete block chain verifies: newest first by
// (WriteSeq, address, slot), accept the first whose every referenced
// data and indirect block is intact and was written no later than the
// inode itself. The seq bound is what defuses segment reuse: a block
// address recycled by a newer segment incarnation carries a higher
// WriteSeq than any stale inode that referenced the old occupant, so the
// stale candidate is rejected rather than wired to foreign data.
//
// Data blocks are judged on demand: each round walks every undecided inum's
// candidate, reads the unread blocks of their chains in one sorted sweep,
// and moves an inum whose candidate failed on to its next (only under
// faults). No block outside a tried version's chain is read.
func (fs *FS) salvageAcceptInodes(sc *salvScan, rep *SalvageReport) salvAccepts {
	at := sc.groupCands()
	acc := make(salvAccepts, len(at)-1)
	var open []salvTrial
	for inum := range uint32(len(acc)) {
		if cands := sc.cands[at[inum]:at[inum+1]]; len(cands) > 0 {
			slices.SortFunc(cands, func(a, b salvCand) int {
				return cmp.Or(cmp.Compare(b.seq, a.seq), cmp.Compare(b.addr, a.addr), cmp.Compare(b.slot, a.slot))
			})
			open = append(open, salvTrial{inum: inum, cands: cands})
		}
	}
	var need []int64
	run, gap := logRun{fs: fs}, fs.dev.Geometry().ReadThroughBlocks()
	for len(open) > 0 {
		need = need[:0]
		tried := open[:0]
		for _, t := range open {
			for ok := false; !ok && t.k < len(t.cands); {
				t.lo = len(need)
				if ok = salvageWalkInode(t.cands[t.k].ino, t.cands[t.k].seq, sc, &need); !ok {
					need, t.k = need[:t.lo], t.k+1
				}
			}
			if t.k == len(t.cands) {
				rep.InodesLost++
				continue
			}
			t.hi = len(need)
			tried = append(tried, t)
		}
		sweep := slices.Clone(need)
		slices.Sort(sweep)
		sweep = slices.Compact(sweep)
		run.readRuns(sweep, gap, layout.NilAddr, func(k int, blk []byte, err error) { fs.salvageJudge(sc, rep, sweep[k], blk, err) })
		open = tried[:0]
		for _, t := range tried {
			if slices.ContainsFunc(need[t.lo:t.hi], func(a int64) bool { return !sc.block(a).intact }) {
				t.k++
				open = append(open, t)
				continue
			}
			c := &t.cands[t.k]
			acc[t.inum] = salvAccepted{ino: c.ino, addr: c.addr, slot: c.slot}
		}
	}
	// The root must be a directory; a surviving non-directory inode 1
	// is unusable and treated as lost.
	if a := acc.of(RootInum); a != nil && a.ino.Type != layout.FileTypeDir {
		*a = salvAccepted{}
		rep.InodesLost++
	}
	return acc
}

// salvageWalkInode checks one candidate's block chain against what is known
// of the described blocks. Every block must be intact and written no later
// than seq, the candidate's WriteSeq: it reports false once one is known not
// to be, and the blocks not read yet are appended to need.
func salvageWalkInode(ino *layout.Inode, seq uint64, sc *salvScan, need *[]int64) bool {
	// A size beyond what any block map can address is not a recoverable
	// inode, it is hostile or rotted metadata that happened to checksum —
	// reject it before anything downstream sizes a buffer from it.
	if ino.Size > uint64(layout.MaxFileBlocks)*layout.BlockSize {
		return false
	}
	dir := ino.Type == layout.FileTypeDir
	err := layout.WalkBlockMap(ino,
		func(a int64) ([]int64, error) {
			// An address the inode uses as an indirect block must have been
			// written as one: the scan kept the pointers of those it verified.
			ptrs, isIndirect := sc.ptrs[a]
			if !isIndirect {
				return nil, ErrCorrupt
			}
			return ptrs, nil
		},
		func(kind layout.BlockKind, bn uint32, a int64) error {
			b := sc.block(a)
			if b == nil || b.read && !b.intact || b.seq > seq {
				return ErrCorrupt
			}
			if !b.read {
				*need = append(*need, a)
				b.dir = b.dir || dir
			}
			return nil
		})
	return err == nil
}

// salvagePopulate installs the accepted inodes into the rebuilt inode
// map and caches, synthesizing a fresh empty root when none survived, and
// derives from the map what Mount derives: the inode-block refs and the
// free inums.
func (fs *FS) salvagePopulate(acc salvAccepts, sc *salvScan, rep *SalvageReport) {
	fs.nextInum = RootInum + 1
	for inum := range uint32(len(acc)) {
		if a := acc.of(inum); a != nil {
			fs.imap.setLocation(inum, a.addr, a.slot)
			fs.imap.setVersion(inum, a.ino.Version)
			mi := newMInode(*a.ino)
			fs.icache.put(inum, mi)
			a.ino = &mi.ino
			fs.nextInum = max(fs.nextInum, inum+1)
			rep.InodesRecovered++
		}
	}
	if acc.of(RootInum) == nil {
		// No verifiable root survived: synthesize an empty one, with a
		// version above anything the log holds so stale root blocks can
		// never be mistaken for live.
		fs.newInode(RootInum, layout.FileTypeDir, sc.maxVer[RootInum]+1)
		rep.RootRecreated = true
	}
	fs.rebuildInoBlockRefs()
	fs.rebuildFreeInums()
}

// salvageRebuildDirs reconstructs the directory tree over the accepted
// inodes: decode every surviving directory's entries, drop the ones
// whose targets did not survive (plus duplicate names and second
// references to a directory), reconnect unreachable inodes under
// lost+found/, and set every link count to the actual number of
// references. Directories whose entry list changed are rewritten
// through the normal write path so the closing checkpoint carries them.
func (fs *FS) salvageRebuildDirs(acc salvAccepts, sc *salvScan, rep *SalvageReport) error {
	isDir := func(inum uint32) bool {
		a := acc.of(inum)
		return a != nil && a.ino.Type == layout.FileTypeDir
	}

	// Filtered breadth-first walk from the root. Entries survive when
	// their target was accepted, the name is not a duplicate, and (for
	// directories) the target has not already been reached — each
	// directory gets exactly one parent. The tables reach one past acc, where
	// lost+found may go (allocInum); a visited directory has its finalEnts.
	n := len(acc) + 1
	visited, refs, finalEnts := make([]bool, n), make([]int, n), make([][]layout.DirEntry, n)

	// Raw surviving content of every accepted directory, decoded flags
	// those whose content decodes; one that does not contributes no
	// entries (its children become orphans). The root may be synthesized
	// (absent from acc): it reads as empty.
	rawEnts, decoded, ndecoded := make([][]layout.DirEntry, n), make([]bool, n), 0
	for inum := range uint32(len(acc)) {
		if !isDir(inum) {
			continue
		}
		if data, ok := sc.dirContent(acc[inum].ino); ok {
			if ents, err := layout.DecodeDirectory(data); err == nil {
				rawEnts[inum], decoded[inum] = ents, true
				ndecoded++
			}
		}
	}
	visited[RootInum] = true
	walk := func(from uint32) {
		queue := []uint32{from}
		for len(queue) > 0 {
			dir := queue[0]
			queue = queue[1:]
			names := make(map[string]bool)
			kept := finalEnts[dir]
			for _, e := range kept {
				names[e.Name] = true
			}
			for _, e := range rawEnts[dir] {
				if e.Inum == RootInum || names[e.Name] {
					continue
				}
				if acc.of(e.Inum) == nil {
					continue
				}
				if isDir(e.Inum) {
					if visited[e.Inum] {
						continue
					}
					visited[e.Inum] = true
					queue = append(queue, e.Inum)
				}
				names[e.Name] = true
				refs[e.Inum]++
				kept = append(kept, e)
			}
			finalEnts[dir] = kept
		}
	}
	walk(RootInum)

	// Reconnect orphans: first unreachable directories (each pulls its
	// whole surviving subtree back in), then unreferenced files.
	lf := uint32(0)
	ensureLostFound := func() (uint32, error) {
		if lf != 0 {
			return lf, nil
		}
		names := make(map[string]bool)
		for _, e := range finalEnts[RootInum] {
			names[e.Name] = true
			if e.Name == "lost+found" && isDir(e.Inum) {
				lf = e.Inum
			}
		}
		if lf != 0 {
			return lf, nil
		}
		inum, err := fs.allocInum()
		if err != nil {
			return 0, fmt.Errorf("salvage: no inum left for lost+found: %w", err)
		}
		// A free inum may have lost versions in the log: outrank them all.
		fs.newInode(inum, layout.FileTypeDir, sc.maxVer[inum]+1)
		name := "lost+found"
		for k := 0; names[name]; k++ {
			name = fmt.Sprintf("lost+found.%d", k)
		}
		finalEnts[RootInum] = append(finalEnts[RootInum], layout.DirEntry{Inum: inum, Name: name})
		refs[inum]++
		visited[inum] = true
		finalEnts[inum] = nil
		lf = inum
		return lf, nil
	}
	attach := func(inum uint32) error {
		lfi, err := ensureLostFound()
		if err != nil {
			return err
		}
		taken := make(map[string]bool)
		for _, e := range finalEnts[lfi] {
			taken[e.Name] = true
		}
		name := fmt.Sprintf("ino%d", inum)
		for k := 0; taken[name]; k++ {
			name = fmt.Sprintf("ino%d.%d", inum, k)
		}
		finalEnts[lfi] = append(finalEnts[lfi], layout.DirEntry{Inum: inum, Name: name})
		refs[inum]++
		rep.Orphans++
		return nil
	}
	for inum := range uint32(len(acc)) {
		if !isDir(inum) || visited[inum] || inum == lf {
			continue
		}
		visited[inum] = true
		if err := attach(inum); err != nil {
			return err
		}
		walk(inum)
	}
	for inum := range uint32(len(acc)) {
		if a := acc.of(inum); a != nil && a.ino.Type != layout.FileTypeDir && refs[inum] == 0 {
			if err := attach(inum); err != nil {
				return err
			}
		}
	}

	// Link counts reflect the rebuilt tree exactly (the root counts its
	// own self-reference, matching Check).
	refs[RootInum]++
	fs.icacheMu.Lock()
	fs.icache.each(func(inum uint32, mi *mInode) {
		if int(mi.ino.Nlink) != refs[inum] {
			mi.ino.Nlink = uint16(refs[inum])
			fs.markInodeDirty(inum)
		}
	})
	fs.icacheMu.Unlock()

	// Write back: unchanged directories only warm the caches (their
	// entries held in one allocation); changed (or synthesized) ones are
	// rewritten through the log.
	unchanged := make([][]layout.DirEntry, 0, ndecoded)
	for i, ents := range finalEnts {
		inum := uint32(i)
		if !visited[inum] {
			continue
		}
		// The first entry that differs from what the directory decoded to
		// (0 for one that did not decode) is where its rewrite starts.
		raw := rawEnts[inum]
		from := 0
		for from < len(ents) && from < len(raw) && ents[from] == raw[from] {
			from++
		}
		if decoded[inum] && from == len(ents) && from == len(raw) {
			unchanged = append(unchanged, ents) // within its capacity: no copy moves
			fs.dirCacheMu.Lock()
			fs.icache.get(inum).dir = &unchanged[len(unchanged)-1]
			fs.dirCacheMu.Unlock()
			continue
		}
		if err := fs.saveDir(inum, ents, from); err != nil {
			return fmt.Errorf("salvage: rewriting directory %d: %w", inum, err)
		}
		rep.DirsRepaired++
	}
	return nil
}

// dirContent assembles an accepted directory's contents from the blocks the
// accept pass kept. ok is false — the directory undecodable, its children
// orphans — when it claims more bytes than its block map holds or a block was
// not kept (read before a directory wanted it: two inodes claiming one block).
func (sc *salvScan) dirContent(ino *layout.Inode) ([]byte, bool) {
	var extent int64
	var data []byte // nil on the first walk, which only checks
	visit := func(kind layout.BlockKind, bn uint32, addr int64) error {
		if kind != layout.KindData {
			return nil
		}
		blk, kept := sc.dirData[addr]
		if !kept {
			return ErrCorrupt
		}
		o := int64(bn) * layout.BlockSize
		if extent = max(extent, o+layout.BlockSize); o < int64(len(data)) {
			copy(data[o:], blk)
		}
		return nil
	}
	if layout.WalkBlockMap(ino, sc.verifiedPtrs, visit) != nil || int64(ino.Size) > extent {
		return nil, false
	}
	data = make([]byte, ino.Size)
	_ = layout.WalkBlockMap(ino, sc.verifiedPtrs, visit) // as the first, it cannot err
	return data, true
}

// verifiedPtrs reads an accepted block map's indirect blocks (WalkBlockMap).
func (sc *salvScan) verifiedPtrs(a int64) ([]int64, error) { return sc.ptrs[a], nil }

// salvageRebuildUsage recomputes per-segment live bytes from the accepted
// inodes by Check's enumeration (forEachLiveBlock), walking each block map
// over the pointers the scan verified, so it reads nothing. Segments left
// with no live data are marked clean and their (dead) summary chains
// forgotten, making them immediately reusable.
func (fs *FS) salvageRebuildUsage(acc salvAccepts, sc *salvScan) {
	live := make([]int64, fs.nsegs)
	// Neither verifiedPtrs nor visit fails, so no walk does: it cannot err.
	_ = fs.forEachLiveBlock(func(inum uint32, visit func(layout.BlockKind, uint32, int64) error) error {
		return layout.WalkBlockMap(acc[inum].ino, sc.verifiedPtrs, visit)
	}, func(_ layout.BlockKind, _ uint32, _ int, addr int64) {
		if seg := fs.segOf(addr); seg >= 0 && seg < fs.nsegs {
			live[seg] += layout.BlockSize
		}
	})
	for s := int64(0); s < fs.nsegs; s++ {
		if live[s] == 0 {
			if !fs.segs.isQuarantined(s) {
				fs.usage.markClean(s)
				fs.sums.drop(s)
			}
			continue
		}
		fs.usage.entries[s].LiveBytes = uint32(live[s])
		fs.usage.entries[s].Flags |= layout.SegFlagDirty
	}
}
