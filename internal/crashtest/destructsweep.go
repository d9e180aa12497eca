package crashtest

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/layout"
)

// The destruction sweep. Where the fault sweeps (faultsweep.go,
// writefaultsweep.go) explore single media faults the file system must
// absorb transparently, this harness explores wholesale destruction the
// file system cannot absorb — both checkpoint regions zeroed, summary
// blocks wiped, imap and usage blocks gone, arbitrary log blocks
// corrupted, alone and in combination — and verifies the last rung of
// the fault ladder: salvage. The contract on every destruction site:
//
//   - no panic, ever;
//   - SalvageImage succeeds and the result is NOT degraded: repair is
//     unconditional as long as the superblock and two clean segments
//     survive;
//   - the salvaged image passes a full consistency check, and survives
//     an unmount/remount cycle bit-for-bit;
//   - recovery is exactly physical survival: a path whose complete
//     dependency closure (its inode chain, every data and indirect
//     block, and the summary-chain prefixes covering them, for the path
//     itself and every ancestor directory) escaped destruction MUST come
//     back byte-identical at its old name; a file whose own closure
//     survived but whose ancestry did not MUST come back byte-identical
//     somewhere (typically under lost+found/); everything else is
//     legitimately lost and unconstrained.
//
// The dependency map is computed by an independent layout-level walk of
// the pristine final image (disk.Peek only, no file system code), so the
// oracle shares no logic with the salvager it judges.
//
// A block's dependency set includes the whole summary-chain prefix up to
// its covering summary — not just the covering summary itself — because
// destroying any earlier summary in a segment's chain truncates the walk
// there and hides everything after it.

// DestructionSweepResult summarizes a completed destruction sweep.
type DestructionSweepResult struct {
	Sites                 int   // destruction sites executed
	BothCheckpointsZeroed int   // sites where both checkpoint regions were zeroed
	BlocksDestroyed       int64 // blocks actually changed across all sites
	IntactPaths           int64 // paths with full closure surviving, verified byte-identical in place
	ContentRecovered      int64 // files verified through the physical-survival (content) arm
	Unconstrained         int64 // path checks where destruction legitimately voided the oracle
}

// destScan is the layout-level map of the pristine final image: the live
// summary chains, every verified block's covering summary, and the
// newest on-disk version of every inode.
type destScan struct {
	sb        *layout.Superblock
	sumAddrs  []int64           // every live-chain summary block address
	chain     map[int64][]int64 // summary addr → chain prefix up to and including it
	cover     map[int64]int64   // verified block addr → covering summary addr
	inode     map[uint32]*layout.Inode
	inodeAddr map[uint32]int64 // inode block holding the newest version
	metaAddrs []int64          // imap + usage block addrs, newest write first
}

// scanImage builds the destScan by walking every segment's summary chain
// with Peek. The loop below restates the chain rules (decode failure,
// WriteSeq regression, entry count escaping the segment) instead of using
// layout.SegWalker, which every walk in the product goes through: this is
// the oracle the salvager is held to, and an oracle that shared the
// walker would agree with it about a wrong rule. Keep it independent.
func scanImage(d *disk.Disk, sb *layout.Superblock) (*destScan, error) {
	ds := &destScan{
		sb:        sb,
		chain:     map[int64][]int64{},
		cover:     map[int64]int64{},
		inode:     map[uint32]*layout.Inode{},
		inodeAddr: map[uint32]int64{},
	}
	type metaSeq struct {
		addr int64
		seq  uint64
	}
	type best struct {
		seq  uint64
		addr int64
		slot int
	}
	var metas []metaSeq
	bests := map[uint32]best{}
	segBlocks := int64(sb.SegmentBlocks)
	for seg := int64(0); seg < int64(sb.NumSegments); seg++ {
		start := sb.SegmentBase + seg*segBlocks
		var prefix []int64
		var prevSeq uint64
		first := true
		for off := int64(0); off <= segBlocks-2; {
			sumAddr := start + off
			buf, err := d.Peek(sumAddr)
			if err != nil {
				return nil, fmt.Errorf("scan segment %d: %w", seg, err)
			}
			s, err := layout.DecodeSummary(buf)
			if err != nil {
				break
			}
			if !first && s.WriteSeq <= prevSeq {
				break
			}
			first, prevSeq = false, s.WriteSeq
			n := int64(len(s.Entries))
			if n == 0 || off+1+n > segBlocks {
				break
			}
			prefix = append(prefix, sumAddr)
			ds.sumAddrs = append(ds.sumAddrs, sumAddr)
			ds.chain[sumAddr] = append([]int64(nil), prefix...)
			for i, e := range s.Entries {
				addr := sumAddr + 1 + int64(i)
				blk, err := d.Peek(addr)
				if err != nil {
					return nil, fmt.Errorf("scan block %d: %w", addr, err)
				}
				if layout.Checksum(blk) != e.Sum {
					continue // stale overlap inside a reused segment
				}
				ds.cover[addr] = sumAddr
				switch e.Kind {
				case layout.KindInode:
					inos, err := layout.DecodeInodeBlock(blk)
					if err != nil {
						break
					}
					for slot, ino := range inos {
						if ino.Inum < core.RootInum {
							continue
						}
						b, ok := bests[ino.Inum]
						newer := !ok || s.WriteSeq > b.seq ||
							(s.WriteSeq == b.seq && addr > b.addr) ||
							(s.WriteSeq == b.seq && addr == b.addr && slot > b.slot)
						if newer {
							bests[ino.Inum] = best{seq: s.WriteSeq, addr: addr, slot: slot}
							ds.inode[ino.Inum] = ino
							ds.inodeAddr[ino.Inum] = addr
						}
					}
				case layout.KindImap, layout.KindSegUsage:
					metas = append(metas, metaSeq{addr: addr, seq: s.WriteSeq})
				}
			}
			off += 1 + n
		}
	}
	sort.Slice(metas, func(i, j int) bool {
		if metas[i].seq != metas[j].seq {
			return metas[i].seq > metas[j].seq
		}
		return metas[i].addr > metas[j].addr
	})
	for _, m := range metas {
		ds.metaAddrs = append(ds.metaAddrs, m.addr)
	}
	return ds, nil
}

// blockMap walks one inode's block pointers via Peek, returning its data
// blocks (block number → address) and indirect-block addresses.
func (ds *destScan) blockMap(d *disk.Disk, ino *layout.Inode) (map[uint32]int64, []int64, error) {
	data := map[uint32]int64{}
	var meta []int64
	for bn, a := range ino.Direct {
		if a != layout.NilAddr {
			data[uint32(bn)] = a
		}
	}
	readPtrs := func(a int64) ([]int64, error) {
		buf, err := d.Peek(a)
		if err != nil {
			return nil, err
		}
		return layout.DecodeIndirectBlock(buf), nil
	}
	if ino.Indirect != layout.NilAddr {
		meta = append(meta, ino.Indirect)
		ptrs, err := readPtrs(ino.Indirect)
		if err != nil {
			return nil, nil, err
		}
		for j, a := range ptrs {
			if a != layout.NilAddr {
				data[uint32(layout.NumDirect+j)] = a
			}
		}
	}
	if ino.DIndir != layout.NilAddr {
		meta = append(meta, ino.DIndir)
		top, err := readPtrs(ino.DIndir)
		if err != nil {
			return nil, nil, err
		}
		for l2i, l2a := range top {
			if l2a == layout.NilAddr {
				continue
			}
			meta = append(meta, l2a)
			ptrs, err := readPtrs(l2a)
			if err != nil {
				return nil, nil, err
			}
			for j, a := range ptrs {
				if a != layout.NilAddr {
					bn := uint32(layout.NumDirect + layout.PointersPerBlock + l2i*layout.PointersPerBlock + j)
					data[bn] = a
				}
			}
		}
	}
	return data, meta, nil
}

// closure returns the full dependency set of one inode: its inode block,
// every data and indirect block, and for each of those the summary-chain
// prefix that makes it discoverable.
func (ds *destScan) closure(d *disk.Disk, inum uint32) (map[int64]bool, error) {
	ino := ds.inode[inum]
	if ino == nil {
		return nil, fmt.Errorf("inum %d has no scanned inode", inum)
	}
	out := map[int64]bool{}
	add := func(a int64) {
		out[a] = true
		if sum, ok := ds.cover[a]; ok {
			for _, s := range ds.chain[sum] {
				out[s] = true
			}
		}
	}
	add(ds.inodeAddr[inum])
	data, meta, err := ds.blockMap(d, ino)
	if err != nil {
		return nil, err
	}
	for _, a := range data {
		add(a)
	}
	for _, a := range meta {
		add(a)
	}
	return out, nil
}

// dirEntries decodes one scanned directory's entry list, assembling its
// content from the newest inode's data blocks (holes read as zeros).
func (ds *destScan) dirEntries(d *disk.Disk, inum uint32) ([]layout.DirEntry, error) {
	ino := ds.inode[inum]
	if ino == nil || ino.Type != layout.FileTypeDir {
		return nil, fmt.Errorf("inum %d is not a scanned directory", inum)
	}
	data, _, err := ds.blockMap(d, ino)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, ino.Size)
	for bn, a := range data {
		off := int64(bn) * layout.BlockSize
		if off >= int64(len(buf)) {
			continue
		}
		blk, err := d.Peek(a)
		if err != nil {
			return nil, err
		}
		copy(buf[off:], blk)
	}
	return layout.DecodeDirectory(buf)
}

// DestructionSweep records a workload, then destroys `sites` independent
// clones of its final image — rotating through six destruction arms:
// both checkpoint regions zeroed, one region zeroed, summary blocks
// zeroed, imap/usage blocks zeroed, random log blocks corrupted, and a
// combination — salvages each, and holds the physical-survival contract
// described at the top of the file. It returns the sweep summary and the
// first violation found (nil when every site upheld it).
func DestructionSweep(s core.Script, sites int, cfg Config) (res *DestructionSweepResult, err error) {
	defer seedErr("destructsweep", s, &err)
	cfg = cfg.withDefaults()
	res = &DestructionSweepResult{Sites: sites}

	// The final image, and the final state as the file system reports it.
	snap, want, paths, err := buildFinalImage(s, cfg)
	if err != nil {
		return nil, err
	}

	// The independent layout-level map of the same image: a clone of the
	// very snapshot destruction is applied to, read with Peek only. (Not
	// the clone the baseline walk mounted — its unmount wrote a checkpoint
	// and imap/usage blocks the destroyed clones never see.)
	d := disk.FromSnapshot(snap)
	sbBuf, err := d.Peek(0)
	if err != nil {
		return nil, fmt.Errorf("superblock: %w", err)
	}
	sb, err := layout.DecodeSuperblock(sbBuf)
	if err != nil {
		return nil, fmt.Errorf("superblock: %w", err)
	}
	ds, err := scanImage(d, sb)
	if err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}

	// Resolve every baseline path through the scanned directory tree and
	// compute its own and full dependency closures. A failure here means
	// the independent walk disagrees with the mounted file system on a
	// pristine image — a bug with no destruction involved.
	closures := map[uint32]map[int64]bool{}
	getClosure := func(inum uint32) (map[int64]bool, error) {
		if c, ok := closures[inum]; ok {
			return c, nil
		}
		c, err := ds.closure(d, inum)
		if err != nil {
			return nil, err
		}
		closures[inum] = c
		return c, nil
	}
	entsCache := map[uint32][]layout.DirEntry{}
	getEnts := func(inum uint32) ([]layout.DirEntry, error) {
		if e, ok := entsCache[inum]; ok {
			return e, nil
		}
		e, err := ds.dirEntries(d, inum)
		if err != nil {
			return nil, err
		}
		entsCache[inum] = e
		return e, nil
	}
	ownDeps := map[string]map[int64]bool{}
	fullDeps := map[string]map[int64]bool{}
	for _, p := range paths {
		full := map[int64]bool{}
		rc, err := getClosure(core.RootInum)
		if err != nil {
			return nil, fmt.Errorf("root closure: %w", err)
		}
		maps.Copy(full, rc)
		cur := core.RootInum
		parts := strings.Split(strings.TrimPrefix(p, "/"), "/")
		for i, name := range parts {
			ents, err := getEnts(cur)
			if err != nil {
				return nil, fmt.Errorf("resolve %s: %w", p, err)
			}
			child := uint32(0)
			for _, e := range ents {
				if e.Name == name {
					child = e.Inum
					break
				}
			}
			if child == 0 {
				return nil, fmt.Errorf("resolve %s: %q not found in the scanned tree", p, name)
			}
			cc, err := getClosure(child)
			if err != nil {
				return nil, fmt.Errorf("closure of %s: %w", p, err)
			}
			maps.Copy(full, cc)
			if i == len(parts)-1 {
				ownDeps[p] = cc
			}
			cur = child
		}
		fullDeps[p] = full
	}

	segBase := sb.SegmentBase
	segEnd := sb.SegmentBase + int64(sb.NumSegments)*int64(sb.SegmentBlocks)

	// runOne destroys one clone and salvages it.
	runOne := func(site int) error {
		rng := rand.New(rand.NewSource(s.Seed*1000003 + int64(site)))
		fd := disk.FromSnapshot(snap)
		destroyed := map[int64]bool{}
		var derr error
		zeroBlk := make([]byte, layout.BlockSize)
		zero := func(addr int64) {
			if derr != nil {
				return
			}
			old, perr := fd.Peek(addr)
			if perr != nil {
				derr = perr
				return
			}
			if bytes.Equal(old, zeroBlk) {
				return // already zero: nothing is destroyed
			}
			destroyed[addr] = true
			derr = fd.Poke(addr, zeroBlk)
		}
		corrupt := func(addr int64) {
			if derr != nil {
				return
			}
			old, perr := fd.Peek(addr)
			if perr != nil {
				derr = perr
				return
			}
			buf := append([]byte(nil), old...)
			mask := byte(1 + rng.Intn(255))
			for j := range buf {
				buf[j] ^= mask
			}
			destroyed[addr] = true
			derr = fd.Poke(addr, buf)
		}
		zeroCp := func(w int) {
			for b := int64(0); b < int64(sb.CheckpointBlocks); b++ {
				zero(sb.CheckpointAddr[w] + b)
			}
		}
		pick := func(addrs []int64) int64 { return addrs[rng.Intn(len(addrs))] }

		switch site % 6 {
		case 0: // both checkpoint regions gone — Mount has nothing
			zeroCp(0)
			zeroCp(1)
			res.BothCheckpointsZeroed++
		case 1: // one checkpoint region gone
			zeroCp((site / 6) % 2)
		case 2: // summary blocks wiped, truncating their chains
			for k := 1 + rng.Intn(4); k > 0; k-- {
				zero(pick(ds.sumAddrs))
			}
		case 3: // imap/usage blocks gone, newest (checkpoint-referenced) first
			if len(ds.metaAddrs) > 0 {
				zero(ds.metaAddrs[0])
				for k := 1 + rng.Intn(3); k > 0; k-- {
					zero(pick(ds.metaAddrs))
				}
			}
		case 4: // random log-area blocks corrupted (silent bit rot)
			for k := 1 + rng.Intn(6); k > 0; k-- {
				corrupt(segBase + rng.Int63n(segEnd-segBase))
			}
		case 5: // combination: no checkpoints, torn chains, rotted blocks
			zeroCp(0)
			zeroCp(1)
			res.BothCheckpointsZeroed++
			for k := 1 + rng.Intn(3); k > 0; k-- {
				zero(pick(ds.sumAddrs))
			}
			for k := 1 + rng.Intn(4); k > 0; k-- {
				corrupt(segBase + rng.Int63n(segEnd-segBase))
			}
		}
		if derr != nil {
			return fmt.Errorf("destroy: %w", derr)
		}
		res.BlocksDestroyed += int64(len(destroyed))

		sfs, _, serr := core.SalvageImage(fd, *cfg.Opts)
		if serr != nil {
			return fmt.Errorf("salvage failed: %w", serr)
		}
		if sfs.Degraded() {
			return fmt.Errorf("salvaged image is degraded: %s", sfs.DegradedReason())
		}
		if err := checkClean(sfs); err != nil {
			return fmt.Errorf("salvaged image: %w", err)
		}
		t, werr := walkTree(sfs, false)
		if werr != nil {
			return fmt.Errorf("post-salvage walk: %w", werr)
		}
		got := t.rec

		// The physical-survival oracle.
		survives := func(deps map[int64]bool) bool {
			for a := range deps {
				if destroyed[a] {
					return false
				}
			}
			return true
		}
		for _, p := range paths {
			w := want[p]
			if survives(fullDeps[p]) {
				g, ok := got[p]
				if !ok {
					return fmt.Errorf("%s: full dependency closure survived but the path is missing", p)
				}
				if g.dir != w.dir {
					return fmt.Errorf("%s: recovered as dir=%v, want dir=%v", p, g.dir, w.dir)
				}
				if !w.dir && !bytes.Equal(g.data, w.data) {
					return fmt.Errorf("%s: recovered content differs (%d bytes, want %d)", p, len(g.data), len(w.data))
				}
				res.IntactPaths++
				continue
			}
			if !w.dir && survives(ownDeps[p]) {
				found := false
				if g, ok := got[p]; ok && !g.dir && bytes.Equal(g.data, w.data) {
					found = true
				}
				if !found {
					for _, g := range got {
						if !g.dir && bytes.Equal(g.data, w.data) {
							found = true
							break
						}
					}
				}
				if !found {
					return fmt.Errorf("%s: content physically survived destruction but was not recovered anywhere", p)
				}
				res.ContentRecovered++
				continue
			}
			res.Unconstrained++
		}

		// A salvaged image is a normal image: it must unmount and mount
		// back bit-for-bit, with no salvage assistance.
		if uerr := sfs.Unmount(); uerr != nil {
			return fmt.Errorf("post-salvage unmount: %w", uerr)
		}
		if _, _, err := absorbed(fd, *cfg.Opts, nil, got); err != nil {
			return fmt.Errorf("remount of the salvaged image: %w", err)
		}
		return nil
	}

	for site := 0; site < sites; site++ {
		if err := guarded(func() error { return runOne(site) }); err != nil {
			return res, fmt.Errorf("site %d (arm %d): %w", site, site%6, err)
		}
	}
	return res, nil
}
