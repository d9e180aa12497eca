// Last-resort salvage: rebuild a mountable file system from the log
// alone. Checkpoint + roll-forward recovery (recovery.go) assumes at
// least one checkpoint region survives; when both are gone, or when
// unrecoverable metadata pushed a mount into degraded read-only mode,
// everything needed to reconstruct the image is still redundantly
// encoded in the segment summaries the log already carries: every live
// block's kind, owner and per-block CRC, and every inode's address and
// version. The scavenger here walks all of it, keeps the newest
// verifiable version of each inode, rebuilds the inode map, the segment
// usage table and the directory tree (reconnecting orphans under
// lost+found/), writes a fresh checkpoint into a surviving or
// re-initialized region, and clears degraded mode — the final rung of
// the fault ladder: retry → relocate → quarantine → degrade → repair.
package core

import (
	"errors"
	"fmt"
	"sort"

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
	// BlocksVerified counts log blocks whose contents matched their
	// summary-recorded CRC.
	BlocksVerified int
	// BlocksDropped counts log blocks discarded: unreadable, or failing
	// their per-block CRC.
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
	ino  *layout.Inode
	addr int64 // inode block address
	slot uint16
	seq  uint64 // WriteSeq of the partial write that carried it
}

// salvAccepted is the chosen (newest verifiable) version of an inode.
type salvAccepted struct {
	ino  *layout.Inode
	addr int64
	slot uint16
	data map[uint32]int64 // block number → verified data block address
	meta []int64          // verified indirect-block addresses
}

// salvScan accumulates the full-log scan results.
type salvScan struct {
	intact map[int64]uint64 // verified block address → covering WriteSeq
	// ptrs holds the decoded pointers of every verified indirect block, so
	// that checking the candidates' block chains reads nothing again.
	ptrs      map[int64][]int64
	cands     map[uint32][]salvCand
	maxVer    map[uint32]uint32 // highest inode version seen per inum
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
	fs.startCleaner()
	fs.startCommitter()
	return fs, rep, nil
}

// salvageLocked is the scavenger shared by Salvage and SalvageImage.
// Caller holds fs.mu (or owns the FS exclusively, pre-publication). It
// discards all in-memory state, re-derives everything from the log, and
// commits the rebuilt image with a fresh checkpoint. phases meters the
// device from wherever the caller started it (SalvageImage: before the
// superblock read, which so counts towards the scan).
func (fs *FS) salvageLocked(phases *phaseMeter) (*SalvageReport, error) {
	fs.tr.Add(obs.CtrSalvageRuns, 1)
	rep := &SalvageReport{}
	fs.salvageReset()
	sc := fs.salvageScan(rep)
	phases.end("scan")
	return rep, fs.salvageRebuild(sc, rep, phases)
}

func newSalvScan() *salvScan {
	return &salvScan{
		intact: make(map[int64]uint64),
		ptrs:   make(map[int64][]int64),
		cands:  make(map[uint32][]salvCand),
		maxVer: make(map[uint32]uint32),
	}
}

// salvageScan reads the whole log, segment by segment.
func (fs *FS) salvageScan(rep *SalvageReport) *salvScan {
	sc := newSalvScan()
	scratch := fs.getWalkScratch()
	run := logRun{fs: fs}
	for seg := int64(0); seg < fs.nsegs; seg++ {
		rep.SegmentsScanned++
		fs.salvageScanSeg(seg, sc, rep, scratch, &run)
	}
	fs.putWalkScratch(scratch)
	return sc
}

// salvageRebuild turns a finished scan into a committed image: accept the
// newest verifiable inodes, rebuild usage and directories, pick a log head,
// checkpoint.
func (fs *FS) salvageRebuild(sc *salvScan, rep *SalvageReport, phases *phaseMeter) error {
	// The scan harvested every chain there is.
	fs.sums.markAllHarvested()

	acc := fs.salvageAcceptInodes(sc, rep)
	fs.salvagePopulate(acc, sc, rep)
	phases.end("accept")
	// Usage must be rebuilt before the directory pass: rewriting a
	// directory decrements the live count of each replaced or truncated
	// old block, which underflows against a still-empty table.
	fs.salvageRebuildUsage(acc)
	if err := fs.salvageRebuildDirs(acc, rep); err != nil {
		return err
	}
	// A fresh log head and successor come from the clean segments. Two
	// are required: the closing checkpoint needs somewhere to write the
	// rebuilt metadata, and the log needs a successor to thread to.
	fs.segs.rebuild(fs.usage)
	if fs.segs.next == layout.NilAddr {
		return fmt.Errorf("salvage: %w: fewer than 2 clean segments left", ErrNoSpace)
	}
	phases.end("rebuild")

	if fs.writeSeq <= sc.maxSeq {
		fs.writeSeq = sc.maxSeq + 1
	}
	if fs.dirLogSeq < sc.maxDirSeq {
		fs.dirLogSeq = sc.maxDirSeq
	}
	if fs.ticks.Load() < sc.maxTime {
		fs.ticks.Store(sc.maxTime)
	}
	fs.bytesSinceCp = 0
	fs.relocatedSinceCp = false
	fs.cleanerErr = nil

	// Exit degraded mode before committing: the rebuilt state is
	// consistent, and checkpointLocked's flush refuses to run degraded.
	// If the commit itself fails it re-degrades (or surfaces the error)
	// on its own evidence.
	fs.undegrade()
	prevRec := fs.inRecovery
	fs.inRecovery = true
	err := fs.checkpointLocked()
	fs.inRecovery = prevRec
	if err != nil {
		return fmt.Errorf("salvage: committing rebuilt state: %w", err)
	}
	fs.rebuildFreeInums()
	fs.segs.rebuild(fs.usage)
	phases.end("commit")

	fs.tr.Add(obs.CtrSalvageInodes, int64(rep.InodesRecovered))
	fs.tr.Add(obs.CtrSalvageOrphans, int64(rep.Orphans))
	fs.tr.Add(obs.CtrSalvageDropped, int64(rep.BlocksDropped))
	return nil
}

// salvageReset discards every piece of in-memory state derived from the
// (possibly broken) previous image. The quarantine set is deliberately
// preserved: known-bad media stays withdrawn across repair.
func (fs *FS) salvageReset() {
	fs.imap = newInodeMap(int(fs.sb.MaxInodes))
	fs.usage = newUsageTable(int(fs.nsegs), fs.segBytes)
	fs.dcache = make(map[blockKey][]byte)
	fs.dirtyBlocks = 0
	fs.icacheMu.Lock()
	fs.icache = make(map[uint32]*mInode)
	fs.icacheMu.Unlock()
	fs.dirtyInodes = make(map[uint32]bool)
	fs.dirCacheMu.Lock()
	fs.dirCache = make(map[uint32][]layout.DirEntry)
	fs.dirCacheMu.Unlock()
	fs.pendingOps = nil
	fs.dirlogAddrs = nil
	fs.pending = nil
	fs.inoBlockRefs = make(map[int64]int)
	fs.segs.reset()
	fs.sums = newSumIndex(fs.segBase, fs.segBlocks, fs.nsegs)
	fs.rc.reset()
	// Acknowledged-but-unflushed state (if any) is part of what was
	// lost; the NVRAM redo log describing it must not replay over the
	// rebuilt image.
	fs.nvClear()
}

// salvageScanSeg walks one segment's summary chain, verifying every
// described block against its recorded CRC. Verified blocks join the
// intact set (and the verify-on-read index); inode blocks additionally
// contribute version candidates. Media read errors quarantine the
// segment; checksum mismatches only drop the block (deliberate
// corruption is not evidence the medium is bad).
//
// The blocks a summary describes are read in one request, and the next
// summary candidate — which the walk reads anyway — rides on it: the scan
// reads exactly the blocks a block-at-a-time scan reads, in a request per
// partial write instead of one per block. It never reads a whole segment;
// most segments of a salvaged disk are empty and cost one block each.
func (fs *FS) salvageScanSeg(seg int64, sc *salvScan, rep *SalvageReport, s *layout.WalkScratch, run *logRun) {
	w := layout.WalkSegment(run.source(s), fs.segStart(seg), fs.segBlocks, s)
	for w.Next() {
		rep.SummariesWalked++
		if s.WriteSeq > sc.maxSeq {
			sc.maxSeq = s.WriteSeq
		}
		if s.Timestamp > sc.maxTime {
			sc.maxTime = s.Timestamp
		}
		fs.usage.noteWrite(seg, s.Timestamp)
		n := len(s.Entries)
		if a, ok := w.Ahead(); ok && a == w.DataAddr()+int64(n) {
			n++
		}
		run.read(w.DataAddr(), n)
		for i, e := range s.Entries {
			addr := w.DataAddr() + int64(i)
			blk, err := run.at(addr)
			if err != nil {
				rep.BlocksDropped++
				if errors.Is(err, disk.ErrMediaRead) {
					fs.quarantineSeg(seg)
				}
				continue
			}
			if layout.Checksum(blk) != e.Sum {
				rep.BlocksDropped++
				continue
			}
			rep.BlocksVerified++
			sc.intact[addr] = s.WriteSeq
			fs.sums.record(addr, s.Entries[i:i+1])
			switch e.Kind {
			case layout.KindIndirect:
				sc.ptrs[addr] = layout.DecodeIndirectBlock(blk)
			case layout.KindInode:
				inos, err := layout.DecodeInodeBlock(blk)
				if err != nil {
					break
				}
				for slot, ino := range inos {
					if ino.Inum < RootInum || ino.Inum >= uint32(fs.imap.maxInodes()) {
						continue
					}
					sc.cands[ino.Inum] = append(sc.cands[ino.Inum], salvCand{
						ino: ino, addr: addr, slot: uint16(slot), seq: s.WriteSeq,
					})
					if ino.Version > sc.maxVer[ino.Inum] {
						sc.maxVer[ino.Inum] = ino.Version
					}
				}
			case layout.KindDirLog:
				if ops, err := layout.DecodeDirOpLog(blk); err == nil {
					for _, op := range ops {
						if op.Seq >= sc.maxDirSeq {
							sc.maxDirSeq = op.Seq + 1
						}
					}
				}
			}
		}
	}
	if _, err := fs.walkEnded(w.End()); errors.Is(err, disk.ErrMediaRead) {
		fs.quarantineSeg(seg)
	}
}

// salvageAcceptInodes picks, for every inum seen in the log, the newest
// candidate whose complete block chain verifies: newest first by
// (WriteSeq, address, slot), accept the first whose every referenced
// data and indirect block is in the intact set and was written no later
// than the inode itself. The seq bound is what defuses segment reuse: a
// block address recycled by a newer segment incarnation carries a
// higher WriteSeq than any stale inode that referenced the old
// occupant, so the stale candidate is rejected rather than wired to
// foreign data.
func (fs *FS) salvageAcceptInodes(sc *salvScan, rep *SalvageReport) map[uint32]*salvAccepted {
	acc := make(map[uint32]*salvAccepted)
	for inum32 := 0; inum32 < fs.imap.maxInodes(); inum32++ {
		inum := uint32(inum32)
		cands := sc.cands[inum]
		if len(cands) == 0 {
			continue
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].seq != cands[j].seq {
				return cands[i].seq > cands[j].seq
			}
			if cands[i].addr != cands[j].addr {
				return cands[i].addr > cands[j].addr
			}
			return cands[i].slot > cands[j].slot
		})
		var chosen *salvAccepted
		for k := range cands {
			c := &cands[k]
			data, meta, ok := salvageWalkInode(c.ino, c.seq, sc)
			if ok {
				chosen = &salvAccepted{ino: c.ino, addr: c.addr, slot: c.slot, data: data, meta: meta}
				break
			}
		}
		if chosen == nil {
			rep.InodesLost++
			continue
		}
		acc[inum] = chosen
	}
	// The root must be a directory; a surviving non-directory inode 1
	// is unusable and treated as lost.
	if a, ok := acc[RootInum]; ok && a.ino.Type != layout.FileTypeDir {
		delete(acc, RootInum)
		rep.InodesLost++
	}
	return acc
}

// salvageWalkInode verifies one inode candidate's full block chain
// against the intact set, returning its data block map (block number →
// address) and indirect-block addresses. seq is the candidate's
// WriteSeq; every referenced block must have been written at or before
// it (see salvageAcceptInodes).
func salvageWalkInode(ino *layout.Inode, seq uint64, sc *salvScan) (map[uint32]int64, []int64, bool) {
	// A size beyond what any block map can address is not a recoverable
	// inode, it is hostile or rotted metadata that happened to checksum —
	// reject it before anything downstream sizes a buffer from it.
	if ino.Size > uint64(layout.MaxFileBlocks)*layout.BlockSize {
		return nil, nil, false
	}
	data := make(map[uint32]int64)
	var meta []int64
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
			if s, present := sc.intact[a]; !present || s > seq {
				return ErrCorrupt
			}
			if kind == layout.KindData {
				data[bn] = a
			} else {
				meta = append(meta, a)
			}
			return nil
		})
	return data, meta, err == nil
}

// salvagePopulate installs the accepted inodes into the rebuilt inode
// map and caches, synthesizing a fresh empty root when none survived.
func (fs *FS) salvagePopulate(acc map[uint32]*salvAccepted, sc *salvScan, rep *SalvageReport) {
	fs.nextInum = RootInum + 1
	for inum32 := 0; inum32 < fs.imap.maxInodes(); inum32++ {
		inum := uint32(inum32)
		a, ok := acc[inum]
		if !ok {
			continue
		}
		fs.imap.setLocation(inum, a.addr, a.slot)
		fs.imap.setVersion(inum, a.ino.Version)
		fs.imap.setAtime(inum, a.ino.Atime)
		fs.icacheMu.Lock()
		fs.icache[inum] = newMInode(a.ino)
		fs.icacheMu.Unlock()
		fs.inoBlockRefs[a.addr]++
		if inum >= fs.nextInum {
			fs.nextInum = inum + 1
		}
		rep.InodesRecovered++
	}
	if _, ok := acc[RootInum]; !ok {
		// No verifiable root survived: synthesize an empty one, with a
		// version above anything the log holds so stale root blocks can
		// never be mistaken for live.
		ver := sc.maxVer[RootInum] + 1
		root := layout.NewInode(RootInum, layout.FileTypeDir)
		root.Version = ver
		root.Mtime = fs.ticks.Load()
		fs.icacheMu.Lock()
		fs.icache[RootInum] = newMInode(root)
		fs.icacheMu.Unlock()
		fs.dirtyInodes[RootInum] = true
		fs.imap.setVersion(RootInum, ver)
		fs.dirCacheMu.Lock()
		fs.dirCache[RootInum] = nil
		fs.dirCacheMu.Unlock()
		rep.RootRecreated = true
	}
}

// salvageRebuildDirs reconstructs the directory tree over the accepted
// inodes: decode every surviving directory's entries, drop the ones
// whose targets did not survive (plus duplicate names and second
// references to a directory), reconnect unreachable inodes under
// lost+found/, and set every link count to the actual number of
// references. Directories whose entry list changed are rewritten
// through the normal write path so the closing checkpoint carries them.
func (fs *FS) salvageRebuildDirs(acc map[uint32]*salvAccepted, rep *SalvageReport) error {
	isDir := func(inum uint32) bool {
		a, ok := acc[inum]
		return ok && a.ino.Type == layout.FileTypeDir
	}

	// Raw surviving content of every accepted directory. A directory
	// whose content does not decode contributes no entries (its
	// children become orphans). The root may be synthesized (absent
	// from acc): it reads as empty.
	rawEnts := make(map[uint32][]layout.DirEntry)
	var dirInums []uint32
	if _, ok := acc[RootInum]; !ok {
		dirInums = append(dirInums, RootInum)
	}
	for inum32 := 0; inum32 < fs.imap.maxInodes(); inum32++ {
		inum := uint32(inum32)
		if inum == RootInum && !isDir(inum) {
			continue // synthesized root, already added
		}
		if isDir(inum) {
			dirInums = append(dirInums, inum)
			mi, err := fs.loadInode(inum)
			if err != nil {
				continue
			}
			// The claimed size must fit inside the blocks the accepted
			// chain actually maps; a directory pretending to be larger
			// than its own block map is treated as undecodable (its
			// children become orphans) rather than sized at face value.
			var extent int64
			for bn := range acc[inum].data {
				if end := (int64(bn) + 1) * layout.BlockSize; end > extent {
					extent = end
				}
			}
			if int64(mi.ino.Size) > extent {
				continue
			}
			data := make([]byte, mi.ino.Size)
			if _, err := fs.readAt(mi, 0, data); err != nil {
				continue
			}
			ents, err := layout.DecodeDirectory(data)
			if err != nil {
				continue
			}
			rawEnts[inum] = ents
		}
	}

	// Filtered breadth-first walk from the root. Entries survive when
	// their target was accepted, the name is not a duplicate, and (for
	// directories) the target has not already been reached — each
	// directory gets exactly one parent.
	visited := map[uint32]bool{RootInum: true}
	refs := make(map[uint32]int)
	finalEnts := make(map[uint32][]layout.DirEntry)
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
				if _, ok := acc[e.Inum]; !ok {
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
		inum, err := fs.salvageFreeInum(acc)
		if err != nil {
			return 0, err
		}
		ino := layout.NewInode(inum, layout.FileTypeDir)
		ino.Version = 1
		ino.Mtime = fs.ticks.Load()
		fs.icacheMu.Lock()
		fs.icache[inum] = newMInode(ino)
		fs.icacheMu.Unlock()
		fs.dirtyInodes[inum] = true
		fs.imap.setVersion(inum, 1)
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
	for _, inum := range dirInums {
		if visited[inum] || inum == lf {
			continue
		}
		visited[inum] = true
		if err := attach(inum); err != nil {
			return err
		}
		walk(inum)
	}
	for inum32 := 0; inum32 < fs.imap.maxInodes(); inum32++ {
		inum := uint32(inum32)
		if _, ok := acc[inum]; !ok || inum == RootInum {
			continue
		}
		if !isDir(inum) && refs[inum] == 0 {
			if err := attach(inum); err != nil {
				return err
			}
		}
	}

	// Link counts reflect the rebuilt tree exactly (the root counts its
	// own self-reference, matching Check).
	refs[RootInum]++
	fs.icacheMu.Lock()
	inodes := make(map[uint32]*mInode, len(fs.icache))
	for inum, mi := range fs.icache {
		inodes[inum] = mi
	}
	fs.icacheMu.Unlock()
	for inum32 := 0; inum32 < fs.imap.maxInodes(); inum32++ {
		inum := uint32(inum32)
		mi, ok := inodes[inum]
		if !ok {
			continue
		}
		if int(mi.ino.Nlink) != refs[inum] {
			mi.ino.Nlink = uint16(refs[inum])
			fs.markInodeDirty(inum)
		}
	}

	// Write back: unchanged directories only warm the caches; changed
	// (or synthesized) ones are rewritten through the log.
	var written []uint32
	for inum := range finalEnts {
		written = append(written, inum)
	}
	sort.Slice(written, func(i, j int) bool { return written[i] < written[j] })
	for _, inum := range written {
		ents := finalEnts[inum]
		// The first entry that differs from what the directory decoded to
		// (0 for one that did not decode) is where its rewrite starts.
		raw, haveRaw := rawEnts[inum]
		from := 0
		for from < len(ents) && from < len(raw) && ents[from] == raw[from] {
			from++
		}
		if haveRaw && from == len(ents) && from == len(raw) {
			fs.dirCacheMu.Lock()
			fs.dirCache[inum] = ents
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

// salvageFreeInum returns an unused inum for a synthesized inode
// (lost+found). Prefers extending nextInum; falls back to the first
// gap.
func (fs *FS) salvageFreeInum(acc map[uint32]*salvAccepted) (uint32, error) {
	if int(fs.nextInum) < fs.imap.maxInodes() {
		inum := fs.nextInum
		fs.nextInum++
		return inum, nil
	}
	for inum := RootInum + 1; int(inum) < fs.imap.maxInodes(); inum++ {
		if _, ok := acc[inum]; !ok {
			return inum, nil
		}
	}
	return 0, fmt.Errorf("salvage: %w: no inum left for lost+found", ErrNoInodes)
}

// salvageRebuildUsage recomputes per-segment live bytes from the
// accepted inodes — the same ground truth Check uses: every data and
// indirect block plus one block per distinct inode-block address.
// Segments left with no live data are marked clean and their (dead)
// summary chains forgotten, making them immediately reusable.
func (fs *FS) salvageRebuildUsage(acc map[uint32]*salvAccepted) {
	live := make([]int64, fs.nsegs)
	count := func(addr int64) {
		seg := fs.segOf(addr)
		if seg >= 0 && seg < fs.nsegs {
			live[seg] += layout.BlockSize
		}
	}
	for _, a := range acc {
		for _, addr := range a.data {
			count(addr)
		}
		for _, addr := range a.meta {
			count(addr)
		}
	}
	for addr := range fs.inoBlockRefs {
		count(addr)
	}
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
