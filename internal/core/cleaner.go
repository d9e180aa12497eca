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

// blockLive decides whether the block at addr, described by summary entry
// e, is still live (Section 3.3): data and indirect blocks are checked
// first against the uid (inum + version) in the inode map and then against
// the file's block pointers; metadata blocks are live while the current
// maps still point at them.
func (fs *FS) blockLive(e layout.SummaryEntry, addr int64) (bool, error) {
	switch e.Kind {
	case layout.KindData, layout.KindIndirect:
		me := fs.imap.get(e.Inum)
		if !me.Allocated() || me.Version != e.Version {
			// Fast path: the uid shows the file was deleted or
			// truncated; no need to examine the inode.
			return false, nil
		}
		mi, err := fs.loadInode(e.Inum)
		if err != nil {
			return false, err
		}
		find := fs.blockAddr
		if e.Kind == layout.KindIndirect {
			find = fs.ptrAddr
		}
		cur, err := find(mi, e.BlockNo)
		return err == nil && cur == addr, err
	case layout.KindInode:
		return fs.inoBlockRefs[addr] > 0, nil
	case layout.KindImap:
		i := int(e.Inum)
		return i < len(fs.imap.blockAddr) && fs.imap.blockAddr[i] == addr, nil
	case layout.KindSegUsage:
		i := int(e.Inum)
		return i < len(fs.usage.blockAddr) && fs.usage.blockAddr[i] == addr, nil
	case layout.KindDirLog:
		// Directory log blocks matter only for roll-forward from the
		// last checkpoint. Cleaned segments are not reused until a
		// checkpoint commits, so the cleaner can always treat them as
		// dead; they stay live for usage recomputation until then.
		return slices.Contains(fs.dirlogAddrs, addr), nil
	default:
		return false, fmt.Errorf("%w: unknown summary kind %d", ErrCorrupt, e.Kind)
	}
}

// candidate is a segment considered for cleaning.
type candidate struct {
	seg   int64
	u     float64
	age   float64
	score float64
	kept  bool // in the batch selectByPolicy returns
}

// selectCandidates ranks cleanable segments by the configured policy and
// returns up to CleanBatch of them, best first. Greedy ranks by 1-u;
// cost-benefit ranks by (1-u)*age/(1+u) (Section 3.6), which lets cold
// segments be cleaned at much higher utilization than hot ones. If the
// configured policy cannot assemble a space-feasible batch (cost-benefit
// can rank old full segments above young empty ones when free space is
// scarce), selection falls back to greedy, which maximizes reclaimed
// space per pass.
func (fs *FS) selectCandidates() []candidate {
	if cands := fs.selectByPolicy(fs.opts.Policy); cands != nil {
		return cands
	}
	if fs.opts.Policy != PolicyGreedy {
		return fs.selectByPolicy(PolicyGreedy)
	}
	return nil
}

func (fs *FS) selectByPolicy(policy CleaningPolicy) []candidate {
	now := fs.ticks.Load()
	var cands []candidate
	for s := int64(0); s < fs.nsegs; s++ {
		e := fs.usage.get(s)
		if e.Flags&layout.SegFlagDirty == 0 || !fs.segs.cleanable(s) {
			continue
		}
		u := fs.usage.utilization(s)
		if u > 0.999 {
			continue // cleaning a full segment reclaims nothing
		}
		age := float64(1)
		if now > e.LastWrite {
			age += float64(now - e.LastWrite)
		}
		var score float64
		if policy == PolicyGreedy {
			score = 1 - u
		} else {
			score = (1 - u) * age / (1 + u)
		}
		cands = append(cands, candidate{seg: s, u: u, age: age, score: score})
	}
	// An empty segment is never read (cleanPass), so its cost in formula
	// (1) is nothing and it ranks first under either policy: a cold segment
	// that outscores it on age would be read again on every pass over the
	// log (Lomet & Luo, PAPERS.md: what holds nothing live costs nothing
	// to reclaim). Greedy's score already ranks it so.
	slices.SortFunc(cands, func(a, b candidate) int {
		if ea, eb := a.u == 0, b.u == 0; ea != eb {
			if ea {
				return -1
			}
			return 1
		}
		return cmp.Or(cmp.Compare(b.score, a.score), cmp.Compare(a.seg, b.seg))
	})
	// The copied live data (plus the pass's checkpoint metadata) must fit
	// in the space that is available right now: evacuated segments only
	// become reusable after the checkpoint commits. Walk the ranked list
	// and take the best candidates that fit, up to the batch size. Empty
	// segments always fit: evacuating them writes nothing. Copying live
	// data also rewrites the inodes and indirect blocks that point at it
	// and adds summary blocks: budget a conservative 25% on top of the
	// data. The checkpoint is budgeted as it stands plus one inode-map
	// block per live block moved, as far as clean map blocks go: small
	// files in small segments make that most of the bill.
	avail := (fs.segBlocks - fs.segs.headOff) * layout.BlockSize
	avail += int64(fs.segs.free()) * fs.segBytes
	if fs.segs.next != layout.NilAddr {
		avail += fs.segBytes
	}
	metaFloor := fs.checkpointBytes() + 16*layout.BlockSize
	imapClean := int64(fs.imap.cleanBlocks()) * layout.BlockSize
	var live int64
	var kept []candidate
	for i, c := range cands {
		if len(kept) >= fs.opts.CleanBatch {
			break
		}
		l := int64(fs.usage.get(c.seg).LiveBytes)
		if l > 0 && live+l+(live+l)/4+min(live+l, imapClean)+metaFloor > avail {
			continue
		}
		live += l
		cands[i].kept = true
		kept = append(kept, c)
	}
	// Progress guard: the batch must free at least one whole segment
	// beyond the space its live data consumes.
	liveSegs := (live + fs.segBytes - 1) / fs.segBytes
	feasible := int64(len(kept))-liveSegs >= 1
	// One candidate-decision event per scored segment, chosen only when
	// the batch is actually going ahead (an infeasible batch is wholly
	// rejected, so its members are reported rejected too).
	if fs.tr.Tracing() {
		for _, c := range cands {
			fs.tr.Emit(obs.Event{
				Kind: obs.KindCleanerCandidate,
				Candidate: &obs.Candidate{
					Seg: c.seg, U: c.u, Age: c.age, Score: c.score,
					Policy: policy.String(), Chosen: feasible && c.kept,
				},
			})
		}
	}
	if !feasible {
		return nil
	}
	return kept
}

// cleanUntil runs cleaning steps until at least target clean segments
// are available or no further progress is possible, under the caller's
// fs.mu.
func (fs *FS) cleanUntil(target int) error {
	if fs.inCleaner || fs.degraded.Load() {
		return nil
	}
	for {
		progressed, err := fs.cleanStep(target)
		if err != nil || !progressed {
			return err
		}
	}
}

// cleanStep performs one bounded unit of cleaning toward target clean
// segments: one candidate selection + cleaning pass, or one checkpoint
// releasing already-evacuated segments. It reports whether it made
// progress; (false, nil) means the target is met or no further space
// can be reclaimed without being an error. Evacuated segments become
// reusable only after a checkpoint commits (reusing them earlier could
// destroy blocks the previous checkpoint still references); the
// checkpoint's metadata write (every dirty inode-map block) is a fixed
// bill, so it is paid once per cycle, after the pass that reaches the
// target — at the default sizing, the first.
func (fs *FS) cleanStep(target int) (progressed bool, err error) {
	// Flush application traffic first so it is not attributed to the
	// cleaner.
	if err := fs.flushLog(); err != nil {
		return false, err
	}
	if fs.segs.free() >= target {
		return false, nil
	}
	fs.inCleaner = true
	defer func() { fs.inCleaner = false }()
	if n := len(fs.segs.pending()); n > 0 && fs.segs.free()+n >= target {
		// Segments evacuated earlier already cover the target: a
		// releasing checkpoint is the only work needed. (This is what
		// keeps CleanIdle from cleaning new segments past its budget
		// when pending-clean work is banked.)
		return true, fs.checkpointLocked()
	}
	cands := fs.selectCandidates()
	if len(cands) == 0 {
		if len(fs.segs.pending()) > 0 {
			// Release the evacuated segments; that may open up
			// enough output space to keep cleaning.
			return true, fs.checkpointLocked()
		}
		if fs.segs.free() == 0 && fs.segs.next == layout.NilAddr {
			return false, ErrNoSpace
		}
		return false, nil
	}
	if err := fs.cleanPass(cands); err != nil {
		return false, err
	}
	npending := len(fs.segs.pending())
	enough := fs.segs.free()+npending >= target
	// Release early enough that the checkpoint's own metadata write
	// (which can be large: every inode-map block the pass dirtied)
	// still fits in the remaining space.
	cpSegs := int(fs.checkpointBytes()/fs.segBytes) + 1
	lowSpace := fs.segs.free() < reserveSegments+1+cpSegs
	if (enough || lowSpace) && npending > 0 {
		if err := fs.checkpointLocked(); err != nil {
			return false, err
		}
	}
	return true, nil
}

// checkpointBytes estimates the log volume the next checkpoint will
// write: the dirty inode-map blocks plus the whole usage table.
func (fs *FS) checkpointBytes() int64 {
	n := fs.imap.ndirty + fs.usage.numBlocks() + int(fs.sb.CheckpointBlocks)
	return int64(n+4) * layout.BlockSize
}

// cleanPass evacuates one batch of segments and queues them for release
// at the next checkpoint (Section 3.3). The pass, not the segment, is the
// unit of the pipeline: the live data blocks of every candidate are
// collected into one list, sorted once by age, oldest first, so that
// blocks of similar age from different victims are written next to each
// other and cold data segregates into its own output segments (Section
// 3.4, policy 4), staged once and flushed once. Live metadata is
// re-dirtied while collecting so the normal write path repacks it.
// Victims are read in address order, so the arm sweeps the disk once (a
// whole read keeps Sprite's candidate order); ties in age go by candidate
// rank, then log order, so the order of reading changes nothing written.
//
// Segments are retired only after every live block collected from them is
// staged (segAlloc.retire's contract), so on any error the pass retires
// nothing and drops what it collected: the blocks are still live where
// they were.
//
// The pass holds the device's own blocks (disk.ReadViews), not copies: a
// view is released when its victim's walk ends unless it was staged, and a
// staged one once the pass's flush has written it. On an error nothing is
// released, which costs the device a fresh buffer on the block's next
// write and can never change a byte.
func (fs *FS) cleanPass(cands []candidate) error {
	fs.stats.CleaningPasses++
	wroteBefore := fs.stats.CleanerWriteBytes
	// One list for the pass, sized by the victims' live counts (which bound
	// it: they count metadata blocks too) and dropped with the pass once its
	// flush has written the copies: kept between passes, it is resident.
	var liveBytes int64
	ranks := make([]int, 0, len(cands)) // of the victims to read
	for i, c := range cands {
		fs.stats.SegmentsCleaned++
		// An empty segment is never read (Section 3.4: write cost 1 at u = 0).
		if l := fs.usage.get(c.seg).LiveBytes; l == 0 {
			fs.stats.SegmentsCleanedEmpty++
		} else {
			liveBytes += int64(l)
			fs.stats.CleanedUtilSum += c.u
			ranks = append(ranks, i)
		}
	}
	lives := liveSet{copies: make([]liveCopy, 0, liveBytes/layout.BlockSize)}
	r := victimReader{fs: fs, whole: fs.opts.CleanRead == CleanReadWhole}
	if fs.opts.CleanRead == CleanReadPlanned {
		r.gap = fs.dev.Geometry().ReadThroughBlocks()
	}
	if !r.whole {
		slices.SortFunc(ranks, func(a, b int) int { return cmp.Compare(cands[a].seg, cands[b].seg) })
	}
	if len(ranks) > 0 { // a pass of empty victims reads nothing
		r.views = make([][]byte, fs.segBlocks)
	}
	for _, rank := range ranks {
		if err := fs.collectLive(&r, cands[rank].seg, int64(rank), &lives); err != nil {
			return err
		}
	}
	slices.SortFunc(lives.copies, func(a, b liveCopy) int {
		if !fs.opts.NoAgeSort && a.entry.Age != b.entry.Age {
			return cmp.Compare(a.entry.Age, b.entry.Age)
		}
		return cmp.Compare(a.order, b.order)
	})
	// The pass's flush stages the copies, what is staged already and the
	// inode blocks the copies dirty: grow the queue for them once, not by
	// doubling (flushPending drops the grown array once the flush drains).
	copies := len(lives.copies)
	fs.pending = slices.Grow(fs.pending, copies+fs.stagedBlocks()+copies/layout.InodesPerBlock+1)
	if err := fs.stageLiveCopies(lives.copies); err != nil {
		return err
	}
	for _, c := range cands {
		// A segment quarantined mid-pass (evacuation found corruption or
		// an unreadable region) stays where it is: reads of what could
		// not be verified still report the corruption.
		fs.segs.retire(c.seg)
	}
	// Write the copied live data (and the metadata it dirtied) to the log.
	if err := fs.flushLog(); err != nil {
		return err
	}
	for _, lc := range lives.copies {
		fs.dev.Release(lc.addr, [][]byte{lc.data})
	}
	if fs.tr.Tracing() {
		fs.tr.Emit(obs.Event{
			Kind: obs.KindCleanerPass,
			Pass: &obs.CleanerPass{
				SegmentsIn:          len(cands),
				LiveBlocksRewritten: (fs.stats.CleanerWriteBytes - wroteBefore) / layout.BlockSize,
				WriteCost:           fs.stats.WriteCost(),
			},
		})
	}
	return nil
}

// liveCopy is a live data block collected from a segment being cleaned:
// its summary entry, with Age replaced by the pass's sort key, its address
// and the device's view of its contents, already verified against the
// entry's Sum, and its rank in the pass's candidates and offset in the
// victim, as one number.
type liveCopy struct {
	entry layout.SummaryEntry
	addr  int64
	data  []byte
	order int64
}

// liveSet is what a cleaning pass collects: its live data blocks, at most
// as many as the victims' live counts allow (the capacity of copies).
type liveSet struct {
	copies []liveCopy
}

// getWalkScratch draws the reusable memory of a summary-chain walk from
// the freelist (or allocates one pre-grown to the maximum entry count).
// putWalkScratch parks it again with its entries cleared; the entries are
// copied by value wherever they are retained, so nothing aliases the
// scratch after Put.
func (fs *FS) getWalkScratch() *layout.WalkScratch {
	if s, ok := fs.sumFree.Get(); ok {
		return s
	}
	return layout.NewWalkScratch()
}

func (fs *FS) putWalkScratch(s *layout.WalkScratch) {
	s.Entries = s.Entries[:0]
	fs.sumFree.Put(s)
}

// victimReader is where a pass reads its victims: a table of the device's
// views of the current victim's blocks, by offset, nil where a block was
// not read or its view was staged. It is the block source of the victim's
// summary walk: a summary that rode on the last request is served from the
// table, any other is read on its own.
type victimReader struct {
	// live says, per entry of the current summary, if its block is live and, if needed, read.
	live       [layout.MaxSummaryEntries]bool
	want       [layout.MaxSummaryEntries]int64 // readLive's addresses
	fs         *FS
	views      [][]byte
	whole      bool  // CleanReadWhole: each victim is read in one request
	gap        int64 // dead blocks a request reads through
	start, end int64 // the victim's first address; the end of the last request that succeeded
	err        error // why the last summary read failed
}

func (r *victimReader) blocks(addr, n int64) [][]byte {
	o := addr - r.start
	return r.views[o : o+n]
}

func (r *victimReader) read(addr, n int64) error {
	if err := r.fs.readViewsRetry(addr, r.blocks(addr, n)); err != nil {
		return err
	}
	r.fs.stats.CleanerReadBytes += n * layout.BlockSize
	r.end = addr + n
	return nil
}

// summary is the walk's layout.BlockSource. With r.whole the first
// summary's read takes the whole segment. collectLive takes a failed
// read's error from r.err: taking it from the walker's End would move this
// source to the heap on every segment.
func (r *victimReader) summary(addr int64) ([]byte, error) {
	if n := int64(1); addr >= r.end {
		if r.whole {
			n = r.fs.segBlocks - (addr - r.start)
		}
		r.err = r.read(addr, n)
	}
	return r.views[addr-r.start], r.err
}

// needsContent reports whether the cleaner reads a live block of kind k:
// data is copied, inode blocks are parsed, and the rest need no contents.
func needsContent(k layout.BlockKind) bool { return k == layout.KindData || k == layout.KindInode }

// readLive decides which of a summary's blocks (entries, the first at
// first) are live and, unless the victim was read whole, reads those the
// cleaner needs as planReads plans them, through gaps of r.gap dead blocks.
// A wanted block whose read fails again on its own quarantines the segment.
func (r *victimReader) readLive(first int64, entries []layout.SummaryEntry, ahead int64) error {
	want := r.want[:0]
	for i, e := range entries {
		live, err := r.fs.blockLive(e, first+int64(i))
		if err != nil {
			return err
		}
		r.live[i] = live
		if live && needsContent(e.Kind) && !r.whole {
			want = append(want, first+int64(i))
		}
	}
	var err error
	planReads(want, r.gap, ahead, r.fs.segBlocks, r.read, func(k int, rerr error) {
		if errors.Is(rerr, disk.ErrMediaRead) {
			r.live[want[k]-first] = false
			r.fs.quarantineSeg(r.fs.segOf(first))
		} else if rerr != nil && err == nil {
			err = rerr
		}
	})
	return err
}

// collectLive walks the summary chain of the victim seg (rank in the
// pass's candidates), adds its live data blocks to lives and re-dirties
// its live metadata. A corrupt block is never relocated as if valid: it
// stays where it is, in a quarantined segment cleanPass does not release.
// Read whole, each partial write's DataChecksum is verified, and on a
// mismatch the entry sums triage which blocks are bad; an unreadable
// segment is quarantined whole. Otherwise every block used is verified
// against its entry's Sum; dead blocks are never checked, so corruption
// confined to them quarantines nothing. A walk that ends without an error
// releases every view it read and did not stage.
func (fs *FS) collectLive(r *victimReader, seg, rank int64, lives *liveSet) error {
	start := fs.segStart(seg)
	r.start, r.end, r.err = start, start, nil
	s := fs.getWalkScratch()
	defer fs.putWalkScratch(s)
	w := layout.WalkSegment(r.summary, start, fs.segBlocks, s)
	for w.Next() {
		first, n := w.DataAddr(), int64(len(s.Entries))
		if err := r.readLive(first, s.Entries, w.Ahead()); err != nil {
			return err
		}
		dataOK := !r.whole || viewsChecksum(r.blocks(first, n)) == s.DataChecksum
		for i, e := range s.Entries {
			addr, block := first+int64(i), r.views[first+int64(i)-start]
			if (!dataOK || !r.whole && r.live[i] && needsContent(e.Kind)) && layout.Checksum(block) != e.Sum {
				fs.tr.Add(obs.CtrCorruptBlocks, 1)
				fs.quarantineSeg(seg)
				continue
			}
			if !r.live[i] {
				continue
			}
			if err := fs.copyLive(e, addr, block, rank*fs.segBlocks+addr-start, lives); err != nil {
				return err
			}
			if e.Kind == layout.KindData {
				r.views[addr-start] = nil // staged: released after the pass's flush
			}
		}
	}
	if end, _ := fs.walkEnded(w.End()); end == layout.EndMedia {
		if !errors.Is(r.err, disk.ErrMediaRead) {
			return r.err
		}
		// Without the summary the rest of the chain cannot be trusted;
		// withdraw the segment instead of evacuating it.
		fs.quarantineSeg(seg)
	}
	fs.dev.Release(start, r.views)
	clear(r.views)
	return nil
}

// viewsChecksum is layout.Checksum of the blocks' concatenation.
func viewsChecksum(blocks [][]byte) uint32 {
	var sum uint32
	for _, b := range blocks {
		sum = layout.ChecksumUpdate(sum, b)
	}
	return sum
}

// copyLive processes one live block of a segment being cleaned, its
// contents in block (the device's view) for the kinds that need them: a
// data block's view is added to lives to be rewritten (order is its
// liveCopy.order), and live metadata is re-dirtied so the normal write
// path repacks it.
func (fs *FS) copyLive(e layout.SummaryEntry, addr int64, block []byte, order int64, lives *liveSet) error {
	switch e.Kind {
	case layout.KindData:
		if e.Age == 0 {
			// A summary entry read from disk can carry no age: key the
			// block by its file's single modified time, Sprite's
			// original behaviour (Section 3.6 notes this is inaccurate
			// for files that are not modified in their entirety).
			mi, err := fs.loadInode(e.Inum)
			if err != nil {
				return err
			}
			e.Age = mi.ino.Mtime
		}
		// Only a usage table that undercounts the victims can fill the
		// pass's bound.
		if len(lives.copies) == cap(lives.copies) {
			return fmt.Errorf("%w: segment %d holds more live data than its usage counts", ErrCorrupt, fs.segOf(addr))
		}
		lives.copies = append(lives.copies, liveCopy{entry: e, addr: addr, data: block, order: order})
	case layout.KindIndirect:
		// Re-dirty the in-memory structure; the normal write path
		// rewrites it with current contents.
		mi, err := fs.loadInode(e.Inum)
		if err == nil {
			err = fs.dirtyPtr(mi, e.BlockNo)
		}
		if err != nil {
			return err
		}
		fs.markInodeDirty(e.Inum)
	case layout.KindInode:
		ib, err := layout.OpenInodeBlock(block)
		if err != nil {
			// The block's own checksum disagrees with its summary entry:
			// leave it in place in a quarantined segment rather than
			// abort the pass or relocate garbage.
			fs.tr.Add(obs.CtrCorruptBlocks, 1)
			fs.quarantineSeg(fs.segOf(addr))
			return nil
		}
		// Most slots of a cleaned inode block are stale (the inode has
		// been rewritten elsewhere since) or already cached: read each
		// slot's inum in place and decode only an inode that is both
		// current and missing from the cache.
		for slot := 0; ; slot++ {
			inum, ok := ib.Inum(slot)
			if !ok {
				break
			}
			me := fs.imap.get(inum)
			if me.Allocated() && me.Addr == addr && int(me.Slot) == slot {
				if fs.icache.get(inum) == nil {
					ino, _ := ib.Inode(slot)
					fs.icache.put(inum, newMInode(ino))
				}
				fs.markInodeDirty(inum)
			}
		}
	case layout.KindImap:
		fs.imap.markDirty(int(e.Inum))
	case layout.KindSegUsage, layout.KindDirLog:
		// The usage table is rewritten in full at the pass's checkpoint;
		// live dirlog blocks die at the same checkpoint. Nothing to copy.
	}
	return nil
}

// stageLiveCopies queues the collected live data blocks for rewriting at
// the head of the log, updating each file's block map at placement time.
func (fs *FS) stageLiveCopies(lives []liveCopy) error {
	for i := range lives {
		lc := &lives[i]
		mi, err := fs.loadInode(lc.entry.Inum)
		if err == nil {
			err = fs.ensureMapSlot(mi, lc.entry.BlockNo)
		}
		if err != nil {
			return err
		}
		fs.markInodeDirty(lc.entry.Inum)
		fs.stage(stagedBlock{
			entry:  lc.entry,
			data:   lc.data,
			summed: true, // collect verified lc.data against lc.entry.Sum
			age:    lc.entry.Age,
			file:   mi,
		})
	}
	return nil
}
