package core

import (
	"errors"
	"fmt"
	"sort"

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
	case layout.KindData:
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
		cur, err := fs.blockAddr(mi, e.BlockNo)
		if err != nil {
			return false, err
		}
		return cur == addr, nil
	case layout.KindIndirect:
		me := fs.imap.get(e.Inum)
		if !me.Allocated() || me.Version != e.Version {
			return false, nil
		}
		mi, err := fs.loadInode(e.Inum)
		if err != nil {
			return false, err
		}
		cur, err := fs.ptrAddr(mi, e.BlockNo)
		return cur == addr, err
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
		for _, a := range fs.dirlogAddrs {
			if a == addr {
				return true, nil
			}
		}
		return false, nil
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
	now := fs.now()
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
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].seg < cands[j].seg
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
	for _, c := range cands {
		if len(kept) >= fs.opts.CleanBatch {
			break
		}
		l := int64(fs.usage.get(c.seg).LiveBytes)
		if l > 0 && live+l+(live+l)/4+min(live+l, imapClean)+metaFloor > avail {
			continue
		}
		live += l
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
		chosen := make(map[int64]bool, len(kept))
		if feasible {
			for _, c := range kept {
				chosen[c.seg] = true
			}
		}
		for _, c := range cands {
			fs.tr.Emit(obs.Event{
				Kind: obs.KindCleanerCandidate,
				Candidate: &obs.Candidate{
					Seg: c.seg, U: c.u, Age: c.age, Score: c.score,
					Policy: policy.String(), Chosen: chosen[c.seg],
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
// are available or no further progress is possible. This is the inline
// (foreground) driver; the background cleaner runs the same cleanStep
// but drops fs.mu between steps.
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
	n := len(fs.imap.dirty) + fs.usage.numBlocks() + int(fs.sb.CheckpointBlocks)
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
//
// Segments are retired only after every live block collected from them is
// staged (segAlloc.retire's contract), so on any error the pass retires
// nothing and drops what it collected: the blocks are still live where
// they were.
func (fs *FS) cleanPass(cands []candidate) error {
	fs.stats.CleaningPasses++
	fs.tr.Add(obs.CtrCleanerPasses, 1)
	wroteBefore := fs.stats.CleanerWriteBytes
	// One list for the pass, allocated at the victims' live counts (which
	// bound it: they count metadata blocks too) and dropped with the pass:
	// a few-tens-of-victims list kept between passes is resident memory.
	var liveBytes int64
	for _, c := range cands {
		liveBytes += int64(fs.usage.get(c.seg).LiveBytes)
	}
	lives := make([]liveCopy, 0, liveBytes/layout.BlockSize)
	// By default each segment is read whole in one request (the paper's
	// conservative assumption in formula 1); with CleanReadLiveOnly only
	// the summary blocks and live contents are read.
	collect := fs.collectLiveFull
	if fs.opts.CleanReadLiveOnly {
		collect = fs.collectLiveSparse
	}
	for _, c := range cands {
		fs.stats.SegmentsCleaned++
		fs.tr.Add(obs.CtrCleanerSegments, 1)
		if fs.usage.get(c.seg).LiveBytes == 0 {
			// An empty segment need not be read at all (Section 3.4:
			// write cost 1.0 when u = 0).
			fs.stats.SegmentsCleanedEmpty++
			continue
		}
		fs.stats.CleanedUtilSum += c.u
		var err error
		if lives, err = collect(c.seg, lives); err != nil {
			return err
		}
	}
	if !fs.opts.NoAgeSort {
		// Stable: blocks of equal age stay in candidate order, then log order.
		sort.SliceStable(lives, func(i, j int) bool { return lives[i].entry.Age < lives[j].entry.Age })
	}
	if err := fs.stageLiveCopies(lives); err != nil {
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
// its summary entry, with Age replaced by the pass's sort key, and a
// pooled copy of its contents, already verified against the entry's Sum.
type liveCopy struct {
	entry layout.SummaryEntry
	data  []byte
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

// collectLiveFull reads the whole segment in a single request and
// extracts its live blocks. Each partial write's DataChecksum is
// verified before any of its blocks are copied forward: a corrupt
// block must never be relocated as if valid. On a checksum mismatch
// the per-entry sums triage which blocks are actually bad; those are
// left in place and the segment is quarantined (cleanPass then skips
// releasing it). The live data blocks are appended to lives.
func (fs *FS) collectLiveFull(seg int64, lives []liveCopy) ([]liveCopy, error) {
	start := fs.segStart(seg)
	// The whole-segment buffer is drawn from the run pool and returned
	// on every exit: nothing below retains a view of it (live data is
	// copied into pooled per-block buffers, metadata is decoded into
	// private structures).
	buf := fs.rpool.Get(int(fs.segBlocks))
	defer fs.rpool.Put(buf)
	if err := fs.readRetry(start, buf); err != nil {
		if errors.Is(err, disk.ErrMediaRead) {
			fs.quarantineSeg(seg)
			return lives, nil
		}
		return lives, err
	}
	fs.stats.CleanerReadBytes += fs.segBytes
	fs.tr.Add(obs.CtrCleanerReadBytes, fs.segBytes)

	s := fs.getWalkScratch()
	defer fs.putWalkScratch(s)
	w := layout.WalkSegment(layout.ImageSource(start, buf), start, fs.segBlocks, s)
	for w.Next() {
		first := (w.Off() + 1) * layout.BlockSize
		data := buf[first : first+int64(len(s.Entries))*layout.BlockSize]
		dataOK := layout.Checksum(data) == s.DataChecksum
		if !dataOK {
			fs.quarantineSeg(seg)
		}
		for i, e := range s.Entries {
			block := data[i*layout.BlockSize : (i+1)*layout.BlockSize]
			if !dataOK && layout.Checksum(block) != e.Sum {
				fs.tr.Add(obs.CtrCorruptBlocks, 1)
				continue
			}
			lc, ok, err := fs.handleLiveEntry(e, w.DataAddr()+int64(i), block)
			if err != nil {
				return lives, err
			}
			if ok {
				lives = append(lives, lc)
			}
		}
	}
	fs.walkEnded(w.End())
	return lives, nil
}

// collectLiveSparse walks the segment's summary chain reading only the
// summary blocks, decides liveness from the summaries and the current
// maps, and then reads just the live blocks (coalescing contiguous runs
// into single requests) — the optimization Section 3.4 conjectures. The
// live data blocks are appended to lives.
func (fs *FS) collectLiveSparse(seg int64, lives []liveCopy) ([]liveCopy, error) {
	start := fs.segStart(seg)
	type want struct {
		e    layout.SummaryEntry
		addr int64
	}
	var wants []want
	s := fs.getWalkScratch()
	defer fs.putWalkScratch(s)
	// Every summary block that was read counts as cleaner traffic,
	// including the one that turns out to end the chain.
	src := func(addr int64) ([]byte, error) {
		err := fs.readRetry(addr, s.Blk[:])
		if err == nil {
			fs.stats.CleanerReadBytes += layout.BlockSize
			fs.tr.Add(obs.CtrCleanerReadBytes, layout.BlockSize)
		}
		return s.Blk[:], err
	}
	w := layout.WalkSegment(src, start, fs.segBlocks, s)
	for w.Next() {
		for i, e := range s.Entries {
			addr := w.DataAddr() + int64(i)
			live, err := fs.blockLive(e, addr)
			if err != nil {
				return lives, err
			}
			if !live {
				continue
			}
			switch e.Kind {
			case layout.KindData, layout.KindInode:
				// Content needed: data is copied, inode blocks are
				// parsed for their live inodes.
				wants = append(wants, want{e, addr})
			default:
				// Indirect/imap/usage/dirlog need no content.
				if _, _, err := fs.handleLiveEntry(e, addr, nil); err != nil {
					return lives, err
				}
			}
		}
	}
	if end, err := fs.walkEnded(w.End()); end == layout.EndMedia {
		if !errors.Is(err, disk.ErrMediaRead) {
			return lives, err
		}
		// Without the summary the rest of the chain cannot be trusted;
		// withdraw the segment instead of evacuating it.
		fs.quarantineSeg(seg)
	}

	// Read the wanted blocks, coalescing contiguous runs. Every block
	// copied forward is verified against its summary entry's checksum
	// first; an unreadable run or a corrupt block quarantines the
	// segment and the affected blocks stay in place.
	for i := 0; i < len(wants); {
		j := i + 1
		for j < len(wants) && wants[j].addr == wants[j-1].addr+1 {
			j++
		}
		run := wants[i:j]
		buf := fs.rpool.Get(len(run))
		if err := fs.readRetry(run[0].addr, buf); err != nil {
			fs.rpool.Put(buf)
			if errors.Is(err, disk.ErrMediaRead) {
				fs.quarantineSeg(seg)
				i = j
				continue
			}
			return lives, err
		}
		fs.stats.CleanerReadBytes += int64(len(buf))
		fs.tr.Add(obs.CtrCleanerReadBytes, int64(len(buf)))
		for k, w := range run {
			block := buf[k*layout.BlockSize : (k+1)*layout.BlockSize]
			if layout.Checksum(block) != w.e.Sum {
				fs.tr.Add(obs.CtrCorruptBlocks, 1)
				fs.quarantineSeg(seg)
				continue
			}
			lc, ok, err := fs.handleLiveEntry(w.e, w.addr, block)
			if err != nil {
				fs.rpool.Put(buf)
				return lives, err
			}
			if ok {
				lives = append(lives, lc)
			}
		}
		fs.rpool.Put(buf)
		i = j
	}
	return lives, nil
}

// handleLiveEntry processes one block of a segment being cleaned. It
// assumes content is non-nil for kinds that need it, returns a liveCopy
// (and true) for a data block that must be rewritten, and re-dirties live
// metadata so the normal write path repacks it. Dead blocks are ignored
// (liveness is re-checked here so collectLiveFull need not pre-filter).
func (fs *FS) handleLiveEntry(e layout.SummaryEntry, addr int64, block []byte) (liveCopy, bool, error) {
	live, err := fs.blockLive(e, addr)
	if err != nil || !live {
		return liveCopy{}, false, err
	}
	switch e.Kind {
	case layout.KindData:
		if fs.opts.CoarseAgeSort || e.Age == 0 {
			// Sprite's original behaviour: a single modified time for
			// the whole file (Section 3.6 notes this is inaccurate for
			// files that are not modified in their entirety).
			mi, err := fs.loadInode(e.Inum)
			if err != nil {
				return liveCopy{}, false, err
			}
			e.Age = mi.ino.Mtime
		}
		// Copy into a pooled buffer: the liveCopy is staged for rewrite
		// and flushPending returns it to the pool after the device write.
		data := fs.bpool.Get()
		copy(data, block)
		return liveCopy{entry: e, data: data}, true, nil
	case layout.KindIndirect:
		// Re-dirty the in-memory structure; the normal write path
		// rewrites it with current contents.
		mi, err := fs.loadInode(e.Inum)
		if err != nil {
			return liveCopy{}, false, err
		}
		if err := fs.dirtyPtr(mi, e.BlockNo); err != nil {
			return liveCopy{}, false, err
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
			return liveCopy{}, false, nil
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
				if _, ok := fs.icache[inum]; !ok {
					fs.icache[inum] = newMInode(ib.Inode(slot))
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
	return liveCopy{}, false, nil
}

// stageLiveCopies queues the collected live data blocks for rewriting at
// the head of the log, updating each file's block map at placement time.
func (fs *FS) stageLiveCopies(lives []liveCopy) error {
	for i := range lives {
		lc := &lives[i]
		inum, bn := lc.entry.Inum, lc.entry.BlockNo
		mi, err := fs.loadInode(inum)
		if err != nil {
			return err
		}
		if err := fs.ensureMapSlot(mi, bn); err != nil {
			return err
		}
		fs.markInodeDirty(inum)
		fs.stage(stagedBlock{
			entry:  lc.entry,
			data:   lc.data,
			pooled: true, // handleLiveEntry drew it from the pool
			summed: true, // collect verified lc.data against lc.entry.Sum
			age:    lc.entry.Age,
			placed: func(addr int64) error {
				old, err := fs.setBlockAddr(mi, bn, addr)
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
