// Package core implements the log-structured file system described in
// Rosenblum & Ousterhout, "The Design and Implementation of a
// Log-Structured File System" (SOSP 1991).
//
// The file system buffers modifications in a file cache and writes them to
// disk sequentially in large segment-sized log writes. The log is the only
// structure on disk: it contains file data, indirect blocks, inodes, inode
// map blocks, segment usage table blocks, and a directory operation log.
// A segment cleaner regenerates large free extents by compacting the live
// data out of fragmented segments, using the paper's cost-benefit policy
// by default. Crash recovery combines checkpoints with roll-forward.
//
// The package operates on the simulated block device in internal/disk; all
// performance numbers derived from it are in simulated disk time.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// RootInum is the inode number of the root directory.
const RootInum uint32 = 1

type blockKey struct {
	inum uint32
	bn   uint32
}

// FS is a mounted log-structured file system. All methods are safe for
// concurrent use by multiple goroutines.
//
// Locking discipline: mu is a reader/writer lock. Mutating operations
// take mu.Lock and may touch anything. Read-only operations (ReadAt,
// ReadFile, Stat, ReadDir) take mu.RLock and run concurrently with each
// other; the few structures they mutate on the side — the inode cache,
// the directory cache, the inode map's atime/dirty state, and the
// components that own a lock (read cache, segAlloc, sumIndex) — are
// guarded by small leaf mutexes, which order reader against reader
// (reader against writer is already ordered by mu itself). See DESIGN.md
// for the full discipline.
type FS struct {
	mu   sync.RWMutex
	dev  *disk.Disk
	opts Options
	sb   *layout.Superblock

	segBlocks int64 // blocks per segment
	segBytes  int64
	nsegs     int64
	segBase   int64

	// imapMu guards inode-map access from paths that run under
	// mu.RLock (loadInode's entry read, Stat, and the atime updates
	// read operations make). Writer-only imap access is ordered by mu.
	imapMu sync.Mutex
	imap   *inodeMap
	usage  *usageTable

	// File cache: dirty data blocks awaiting the next log write.
	dcache map[blockKey][]byte
	// bpool recycles single layout.BlockSize buffers and rpool recycles
	// multi-block run buffers (coalesced reads, cleaner segment reads,
	// VerifyLog). Both are internally locked and may be used outside
	// fs.mu. Ownership discipline: a Get buffer is exclusively the
	// caller's until Put or until ownership transfers to
	// the dirty cache (dcache → staged → Put after the device write) or
	// the read cache (readCache.put — after which it is immutable and
	// never returns to the pool; see DESIGN.md).
	bpool *bufpool.Pool
	rpool *bufpool.RunPool
	// Decode scratch: the memory of a summary-chain walk (a Summary whose
	// entry slice is grown to MaxSummaryEntries, plus one block buffer),
	// shared by every walk.
	sumFree *bufpool.Free[*layout.WalkScratch]
	// rc is the read cache for clean blocks (readcache.go): a bounded FIFO
	// with its own leaf lock, nil when Options.ReadCacheBlocks is 0.
	rc *readCache

	// icacheMu guards icache lookups/inserts from paths that run under
	// mu.RLock; writer-only mutation (create, remove, recovery) is
	// ordered by mu.
	icacheMu    sync.Mutex
	icache      map[uint32]*mInode
	dirtyInodes map[uint32]bool
	// dirCache is the one in-memory copy of each loaded directory, as
	// decoded entries (saveDir is told which entry a change touched, so no
	// byte image is kept beside it); it never evicts. dirCacheMu guards
	// loads from paths under mu.RLock.
	dirCacheMu sync.Mutex
	dirCache   map[uint32][]layout.DirEntry

	pendingOps  []*layout.DirOp // directory operation log awaiting flush
	dirlogAddrs []int64         // dirlog blocks written since last checkpoint
	pending     []stagedBlock   // blocks staged for the next log write
	wvec        [][]byte        // writeBatch's gather list, reused (no views kept)

	// segs is the segment allocator — the life cycle of every segment, the
	// log position and the quarantine set (segalloc.go); sums is the
	// verify-on-read checksum index (sumindex.go). Each has its own leaf
	// lock for what read-only operations touch under mu.RLock.
	segs *segAlloc
	sums *sumIndex

	inoBlockRefs map[int64]int // live inodes per packed inode block
	tail         *logTail      // while Mount recovers: what usage recomputation will count

	writeSeq  uint64
	dirLogSeq uint64
	cpSeq     uint64
	cpWhich   int
	// cpBad marks checkpoint regions whose media refused a write: a bad
	// region is never written again, every later checkpoint goes to the
	// survivor, and losing both degrades the file system.
	cpBad     [2]bool
	nextInum  uint32
	freeInums []uint32

	// ticks is atomic because read-only operations advance it while
	// holding only mu.RLock.
	ticks        atomic.Uint64
	bytesSinceCp int64
	dirtyBlocks  int
	inCleaner    bool
	inRecovery   bool
	cpActive     bool
	nvReplaying  bool
	// relocatedSinceCp is set when a write-fault relocation leaves a
	// hole in the on-disk log and cleared once a checkpoint commits the
	// post-relocation head as the recovery root; while set, flushes must
	// checkpoint before acknowledging (see flushLog).
	relocatedSinceCp bool

	// Background cleaner state (Options.BackgroundClean). The goroutine
	// is kicked through cleanerKick when the clean-segment pool falls
	// below the low-water mark, runs bounded cleaning steps under
	// mu.Lock (dropping the lock between steps so readers and writers
	// interleave), and is joined by Unmount through cleanerStop/Done.
	// cleanerBusy is true from the moment a kick is enqueued until the
	// run it triggered completes; cleanerErr is sticky and disables
	// further cleaning. cleanerOwner marks the cleaner goroutine's own
	// foreground work (its preliminary flush) as privileged so it never
	// blocks waiting on itself. All but the channels are guarded by mu.
	cleanerKick  chan struct{}
	cleanerStop  chan struct{}
	cleanerDone  chan struct{}
	cleanerOnce  sync.Once
	cleanerBusy  bool
	cleanerOwner bool
	cleanerErr   error
	// spaceCond wakes writers stalled in waitForCleanSegments; it is
	// signalled after every background cleaning step and on unmount.
	spaceCond *sync.Cond

	// readersNow tracks in-flight read-only operations for the
	// fs.readers.* gauges.
	readersNow atomic.Int64

	// Transaction-grouped log admission (admit.go). stageSeq counts
	// completed mutating operations and flushedSeq is the stageSeq value
	// the last successful flush covered. gate bounds admitted-but-unflushed
	// work and commit is the group committer; each owns its lock.
	stageSeq   atomic.Uint64
	flushedSeq atomic.Uint64
	gate       *admitGate
	commit     *committer
	// nvSeq is the NVRAM durability epoch (Options.NVSyncAbsorb): the
	// highest stageSeq value all of whose operations are recorded in
	// NVRAM or already covered by a flush. flushedSeq is its disk twin;
	// together they are the nvSeq/diskSeq pair — operations at or below
	// max(nvSeq, flushedSeq) survive a crash when the NVRAM does, while
	// only those at or below flushedSeq survive a fail-stop crash that
	// loses it. Written under fs.mu (nvLog), read lock-free by Sync and
	// Durability.
	nvSeq atomic.Uint64
	// nvAbsorbed counts absorbed Syncs; atomic because Sync runs under
	// mu.RLock.
	nvAbsorbed atomic.Int64

	// degraded flips (stickily) when metadata is unrecoverable; mutating
	// operations then fail fast with ErrDegraded. degradedReason is the
	// first diagnosis, published before the flag (fault.go).
	degraded       atomic.Bool
	degradedReason atomic.Pointer[string]

	stats   Stats
	tr      *obs.Tracer
	mounted bool
}

// Format initializes a log-structured file system on dev and returns it
// mounted. The previous contents of the device are ignored.
func Format(dev *disk.Disk, opts Options) (*FS, error) {
	opts = opts.withDefaults()
	attachTracer(dev, opts.Tracer)
	if dev.BlockSize() != layout.BlockSize {
		return nil, fmt.Errorf("lfs: device block size %d, want %d", dev.BlockSize(), layout.BlockSize)
	}
	imapBlocks := (opts.MaxInodes + layout.ImapEntriesPerBlock - 1) / layout.ImapEntriesPerBlock

	// The number of segments depends on where the segment area starts,
	// which depends on the checkpoint region size, which depends on the
	// number of usage blocks, which depends on the number of segments.
	// Iterate to a fixed point (converges immediately in practice).
	segBase := int64(1)
	var nsegs int64
	var cpBlocks int
	for i := 0; i < 4; i++ {
		nsegs = (dev.NumBlocks() - segBase) / int64(opts.SegmentBlocks)
		usageBlocks := (int(nsegs) + layout.SegUsagePerBlock - 1) / layout.SegUsagePerBlock
		cpBlocks = layout.CheckpointBlocksNeeded(imapBlocks, usageBlocks, layout.MaxQuarantinedSegs)
		segBase = 1 + 2*int64(cpBlocks)
	}
	if nsegs < 4 {
		return nil, fmt.Errorf("lfs: device too small: %d segments", nsegs)
	}
	sb := &layout.Superblock{
		Version:          1,
		BlockSize:        layout.BlockSize,
		SegmentBlocks:    uint32(opts.SegmentBlocks),
		NumSegments:      uint32(nsegs),
		SegmentBase:      segBase,
		CheckpointAddr:   [2]int64{1, 1 + int64(cpBlocks)},
		CheckpointBlocks: uint32(cpBlocks),
		MaxInodes:        uint32(opts.MaxInodes),
	}
	if err := dev.WriteBlock(0, sb.Encode()); err != nil {
		return nil, err
	}

	fs := newFS(dev, opts, sb)
	fs.segs.rebuild(fs.usage)
	fs.nextInum = RootInum + 1

	// Create the root directory.
	root := newMInode(layout.NewInode(RootInum, layout.FileTypeDir))
	root.ino.Version = 1
	fs.icache[RootInum] = root
	fs.dirtyInodes[RootInum] = true
	fs.imap.setVersion(RootInum, 1)
	fs.dirCache[RootInum] = nil
	fs.mounted = true
	if err := fs.checkpointLocked(); err != nil {
		return nil, err
	}
	fs.startCleaner()
	fs.startCommitter()
	return fs, nil
}

// runPoolPerClass is how many idle multi-block run buffers each
// power-of-two size class of the run pool keeps.
const runPoolPerClass = 4

func newFS(dev *disk.Disk, opts Options, sb *layout.Superblock) *FS {
	segBlocks := int64(sb.SegmentBlocks)
	nsegs := int64(sb.NumSegments)
	fs := &FS{
		dev:          dev,
		opts:         opts,
		sb:           sb,
		segBlocks:    segBlocks,
		segBytes:     segBlocks * layout.BlockSize,
		nsegs:        nsegs,
		segBase:      sb.SegmentBase,
		imap:         newInodeMap(int(sb.MaxInodes)),
		usage:        newUsageTable(int(nsegs), segBlocks*layout.BlockSize),
		dcache:       make(map[blockKey][]byte),
		icache:       make(map[uint32]*mInode),
		dirtyInodes:  make(map[uint32]bool),
		dirCache:     make(map[uint32][]layout.DirEntry),
		inoBlockRefs: make(map[int64]int),
		wvec:         make([][]byte, 0, layout.MaxSummaryEntries),
		segs:         newSegAlloc(nsegs),
		sums:         newSumIndex(sb.SegmentBase, segBlocks, nsegs),
		rc:           newReadCache(opts.ReadCacheBlocks),
		gate:         newAdmitGate(opts.AdmitBudgetBlocks),
		commit:       newCommitter(),
	}
	fs.spaceCond = sync.NewCond(&fs.mu)
	// The idle block freelist holds two write buffers plus a segment:
	// enough to turn the steady-state write path allocation-free.
	fs.bpool = bufpool.New(layout.BlockSize, 2*opts.WriteBufferBlocks+opts.SegmentBlocks)
	// Runs span at most one segment: coalesced reads are split by the
	// cache/dirty checks, and the cleaner and VerifyLog read at most whole
	// segments. Keep a few idle buffers per class — one cleaner pass, plus
	// concurrent readers.
	fs.rpool = bufpool.NewRun(layout.BlockSize, int(segBlocks), runPoolPerClass)
	// One parked value covers the single cleaner (cleaning runs one pass
	// at a time under fs.mu); the rest serve readers harvesting block
	// checksums side by side.
	fs.sumFree = bufpool.NewFree[*layout.WalkScratch](runPoolPerClass)
	fs.tr = opts.Tracer
	return fs
}

// attachTracer wires tr to the device. Format, Mount and SalvageImage call
// it before their first device request, so the trace and the device's own
// Stats count the same requests — superblock and checkpoint-region reads
// included. Simulated disk time is the observability clock: every event is
// stamped with the device's accumulated busy time.
func attachTracer(dev *disk.Disk, tr *obs.Tracer) {
	if tr == nil {
		return
	}
	tr.SetClock(func() time.Duration { return dev.Stats().BusyTime })
	dev.SetTracer(tr)
}

// Options returns the effective options the file system is running
// with. The copy is safe to mutate: every sizing and policy field is a
// value, and the three reference fields — Tracer, NVRAM and Clock —
// are intentionally shared handles (reassigning them in the copy has
// no effect on the mounted file system, and nothing reachable through
// them lets a caller reconfigure it). See TestOptionsCopyIsIsolated.
func (fs *FS) Options() Options { return fs.opts }

// Superblock returns a copy of the on-disk superblock.
func (fs *FS) Superblock() layout.Superblock { return *fs.sb }

// NumSegments returns the number of log segments.
func (fs *FS) NumSegments() int64 { return fs.nsegs }

// SegmentBytes returns the segment size in bytes.
func (fs *FS) SegmentBytes() int64 { return fs.segBytes }

// Stats returns a snapshot of the accumulated file system statistics.
func (fs *FS) Stats() Stats {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	st := fs.stats
	st.AdmitWaits = fs.gate.waits.Load()
	st.AdmitOps = fs.gate.ops.Load()
	st.NVAbsorbedSyncs = fs.nvAbsorbed.Load()
	st.NVAsyncKicks = fs.commit.kicks.Load()
	return st
}

// ResetStats zeroes the accumulated statistics.
func (fs *FS) ResetStats() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.stats = Stats{}
	fs.gate.waits.Store(0)
	fs.gate.ops.Store(0)
	fs.nvAbsorbed.Store(0)
	fs.commit.kicks.Store(0)
}

// Durability returns the file system's three durability epochs: staged
// counts completed mutating operations, nv is the NVRAM commit epoch
// (meaningful only with Options.NVSyncAbsorb), disk is the epoch the
// last successful log flush covered. Operations at or below
// max(nv, disk) survive a crash when the NVRAM contents do; operations
// at or below disk survive a fail-stop crash that loses them. The crash
// harness uses this to derive recovery floors for both arms.
func (fs *FS) Durability() (staged, nv, disk uint64) {
	return fs.stageSeq.Load(), fs.nvSeq.Load(), fs.flushedSeq.Load()
}

// Tracer returns the attached observability tracer (nil when tracing
// was not configured).
func (fs *FS) Tracer() *obs.Tracer { return fs.tr }

// Metrics snapshots the observability metrics accumulated so far. It
// returns an empty snapshot when no tracer is attached.
func (fs *FS) Metrics() obs.Snapshot { return fs.tr.Metrics() }

// CleanSegments returns how many segments are immediately available for
// new log writes.
func (fs *FS) CleanSegments() int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.segs.free()
}

// SegmentCounts returns how many segments stand in each life-cycle state.
func (fs *FS) SegmentCounts() SegCounts {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.segs.counts()
}

// SegmentUtilizations returns the live-byte fraction of every segment, in
// segment order. It is the data behind Figures 5, 6 and 10.
func (fs *FS) SegmentUtilizations() []float64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make([]float64, fs.nsegs)
	for s := int64(0); s < fs.nsegs; s++ {
		out[s] = fs.usage.utilization(s)
	}
	return out
}

// DiskCapacityUtilization returns the fraction of the segment area
// occupied by live data.
func (fs *FS) DiskCapacityUtilization() float64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var live int64
	for s := int64(0); s < fs.nsegs; s++ {
		live += int64(fs.usage.get(s).LiveBytes)
	}
	return float64(live) / float64(fs.nsegs*fs.segBytes)
}

// now returns the logical time used for mtimes and cleaning ages.
func (fs *FS) now() uint64 {
	if fs.opts.Clock != nil {
		return fs.opts.Clock()
	}
	return fs.ticks.Load()
}

// tick advances the internal logical clock; called once per public
// operation (including reads, which hold only mu.RLock — hence the
// atomic).
func (fs *FS) tick() {
	fs.ticks.Add(1)
}

func (fs *FS) segOf(addr int64) int64   { return (addr - fs.segBase) / fs.segBlocks }
func (fs *FS) segStart(seg int64) int64 { return fs.segBase + seg*fs.segBlocks }

// decLive records the death of the block at addr. Decrements against
// segments that are already clean, and against blocks recovery will
// recount, are suppressed.
func (fs *FS) decLive(addr int64) error {
	seg := fs.segOf(addr)
	if seg < 0 || seg >= fs.nsegs {
		return fmt.Errorf("%w: block address %d outside segment area", ErrCorrupt, addr)
	}
	if fs.usage.isClean(seg) || fs.segs.is(seg, segPending) || fs.recounted(seg, addr) {
		return nil
	}
	return fs.usage.addLive(seg, -layout.BlockSize)
}

// decInoBlockRef drops one inode reference on the packed inode block at
// addr, releasing the block when the last inode leaves it.
func (fs *FS) decInoBlockRef(addr int64) error {
	if addr == layout.NilAddr {
		return nil
	}
	n := fs.inoBlockRefs[addr] - 1
	if n < 0 {
		return fmt.Errorf("%w: inode block %d ref underflow", ErrCorrupt, addr)
	}
	if n == 0 {
		delete(fs.inoBlockRefs, addr)
		return fs.decLive(addr)
	}
	fs.inoBlockRefs[addr] = n
	return nil
}

// readDiskBlock reads the block at addr through the read cache. The
// returned slice is READ-ONLY and may be the cache's own storage:
// callers must copy before mutating (writers that need a private
// mutable block use readFileBlockInto); serving the cache's slice is
// what keeps a hit allocation-free.
// Media errors are retried within the bounded budget and every block
// coming off the disk is checksum-verified before it is cached or used
// (cache hits were verified when they were filled).
func (fs *FS) readDiskBlock(addr int64) ([]byte, error) {
	if b, ok := fs.rc.get(addr); ok {
		return b, nil
	}
	buf := fs.bpool.Get()
	if err := fs.readVerified(addr, buf); err != nil {
		fs.bpool.Put(buf)
		return nil, err
	}
	// Ownership moves to the read cache (readCache.put's one-way door);
	// with no cache the caller keeps the only reference and it dies to the
	// GC, which is why readAt reads a lone block into a pooled one itself.
	fs.rc.put(addr, buf)
	return buf, nil
}

// cacheCopy gives the read cache a private pooled copy of blk, the block a
// caller has just read and verified at addr into a buffer that is not the
// cache's to keep (a run buffer on its way back to the run pool, a buffer
// the write path is about to mutate).
func (fs *FS) cacheCopy(addr int64, blk []byte) {
	if fs.rc == nil {
		return
	}
	cb := fs.bpool.Get()
	copy(cb, blk)
	fs.rc.put(addr, cb)
}

// allocInum allocates an inode number, reusing freed numbers first.
func (fs *FS) allocInum() (uint32, error) {
	if n := len(fs.freeInums); n > 0 {
		inum := fs.freeInums[n-1]
		fs.freeInums = fs.freeInums[:n-1]
		return inum, nil
	}
	if int(fs.nextInum) >= fs.imap.maxInodes() {
		return 0, ErrNoInodes
	}
	inum := fs.nextInum
	fs.nextInum++
	return inum, nil
}

// Unmount checkpoints the file system and marks it unusable. The
// background cleaner and the group committer, if running, are stopped
// and joined first — joining the committer serves every in-flight
// commit epoch, so no parked Sync is abandoned — and the admission
// gate is opened so blocked admitters fail fast on the mounted check.
func (fs *FS) Unmount() error {
	fs.stopCleaner()
	fs.commit.stop()
	fs.gate.close()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	// Writers stalled behind the (now stopped) cleaner must re-check
	// state whatever happens below.
	defer fs.spaceCond.Broadcast()
	if !fs.mounted {
		return ErrUnmounted
	}
	// A degraded file system must never write again: skip the unmount
	// checkpoint (a checkpoint built over broken metadata would launder
	// the damage) and just detach.
	if fs.degraded.Load() {
		fs.mounted = false
		return nil
	}
	if err := fs.checkpointLocked(); err != nil {
		return err
	}
	fs.mounted = false
	return nil
}

// Sync makes all buffered modifications durable. Without NVSyncAbsorb
// that means flushing them to the log (no checkpoint): the caller parks
// on the commit of the epoch its operations joined — when the group
// committer is running, N concurrent Sync callers share one log flush,
// and a Sync whose epoch an earlier flush already covered returns
// without taking fs.mu.Lock at all.
//
// With Options.NVSyncAbsorb the NVRAM redo log is the commit point: if
// the caller's epoch is already recorded there (nvSeq >= want), Sync
// kicks the group committer so the disk catches up asynchronously and
// returns at memory speed. The disk path remains the fallback for
// epochs the NVRAM does not cover — a failed operation can leave such a
// gap — so the durability contract is identical in both modes; only
// where the contract is satisfied differs (NVRAM vs disk log).
func (fs *FS) Sync() error {
	fs.mu.RLock()
	if !fs.mounted {
		fs.mu.RUnlock()
		return ErrUnmounted
	}
	if err := fs.failIfDegraded(); err != nil {
		fs.mu.RUnlock()
		return err
	}
	want := fs.stageSeq.Load()
	covered := fs.flushedSeq.Load() >= want && !fs.checkpointDue()
	absorbed := !covered && fs.opts.NVSyncAbsorb && fs.nvSeq.Load() >= want
	fs.mu.RUnlock()
	if covered {
		return nil
	}
	if absorbed {
		// Re-check degraded state right before the fast return: the
		// async committer degrades concurrently (flushLog failure), and
		// a degraded disk can never catch up to the NVRAM epoch — the
		// absorbed nil would mask an error the commit path surfaces.
		// Degraded callers fall through to requestCommit, whose batch
		// handler reports ErrDegraded.
		if fs.failIfDegraded() == nil {
			fs.nvAbsorbed.Add(1)
			fs.tr.Add(obs.CtrNVAbsorbedSyncs, 1)
			fs.kickCommitAsync(want)
			return nil
		}
	}
	return fs.requestCommit(want)
}

// Checkpoint flushes all state and writes a checkpoint region, creating a
// position in the log at which all structures are consistent and complete
// (Section 4.1).
func (fs *FS) Checkpoint() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.mounted {
		return ErrUnmounted
	}
	if err := fs.failIfDegraded(); err != nil {
		return err
	}
	return fs.checkpointLocked()
}

// Clean runs cleaning passes until the clean-segment count reaches the
// high-water mark or no further space can be reclaimed. Applications
// normally never call it: the cleaner runs automatically when clean
// segments fall below the low-water mark.
func (fs *FS) Clean() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.mounted {
		return ErrUnmounted
	}
	if err := fs.failIfDegraded(); err != nil {
		return err
	}
	return fs.cleanUntil(fs.opts.CleanHighWater)
}

// CleanIdle performs up to budget segments' worth of cleaning work even
// though the clean-segment pool is not low. Section 5.2 observes that "it
// may be possible to perform much of the cleaning at night or during
// other idle periods, so that clean segments are available during bursts
// of activity"; callers invoke this from their own idle detector.
func (fs *FS) CleanIdle(budget int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.mounted {
		return ErrUnmounted
	}
	if err := fs.failIfDegraded(); err != nil {
		return err
	}
	if budget <= 0 {
		return nil
	}
	// Segments cleaned earlier but still awaiting their checkpoint are
	// banked cleaning work: they count toward the budget. cleanStep
	// releases them with a checkpoint alone when they already cover the
	// target, so idle cleaning right before a checkpoint does not clean
	// new segments past the requested budget.
	target := fs.segs.free() + max(budget, len(fs.segs.pending()))
	if limit := int(fs.nsegs) - 1; target > limit {
		target = limit
	}
	return fs.cleanUntil(target)
}
