package core

import (
	"fmt"

	"repro/internal/layout"
)

// CheckReport is the result of a full consistency sweep.
type CheckReport struct {
	// Problems lists every inconsistency found; empty means the file
	// system passed.
	Problems []string
	// LiveBytesBySegment is the recomputed ground-truth live-byte count.
	LiveBytesBySegment []int64
	// Files is the number of allocated inodes.
	Files int
}

func (r *CheckReport) problemf(format string, args ...interface{}) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Check runs a full structural consistency sweep, the lfsck core. It
// recomputes per-segment live-byte counts from the inode map and every
// reachable block pointer, then compares them with the segment usage
// table; it also validates inode-block reference counts, directory tree
// reachability and inode link counts. The file system must be quiescent;
// buffered state is flushed first.
func (fs *FS) Check() (*CheckReport, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.mounted {
		return nil, ErrUnmounted
	}
	if err := fs.flushLog(); err != nil {
		return nil, err
	}
	r := &CheckReport{LiveBytesBySegment: make([]int64, fs.nsegs)}

	// 1. Directory tree: every entry resolves; count each inode's links.
	var walk func(inum uint32, path string)
	var seen inumSet
	nlinks := make([]int, fs.imap.maxInodes()) // directory references, by inum
	walk = func(inum uint32, path string) {
		if !seen.add(inum) {
			r.problemf("directory %s (inum %d) reached twice", path, inum)
			return
		}
		entries, err := fs.loadDir(inum)
		if err != nil {
			r.problemf("directory %s: %v", path, err)
			return
		}
		names := make(map[string]bool)
		for _, ent := range entries {
			if names[ent.Name] {
				r.problemf("directory %s: duplicate entry %q", path, ent.Name)
			}
			names[ent.Name] = true
			ce := fs.imap.get(ent.Inum)
			if !ce.Allocated() {
				r.problemf("directory %s: entry %q names unallocated inum %d", path, ent.Name, ent.Inum)
				continue
			}
			nlinks[ent.Inum]++
			cmi, err := fs.loadInode(ent.Inum)
			if err != nil {
				r.problemf("directory %s: entry %q: %v", path, ent.Name, err)
				continue
			}
			if cmi.ino.Type == layout.FileTypeDir {
				walk(ent.Inum, path+"/"+ent.Name)
			}
		}
	}
	walk(RootInum, "")
	nlinks[RootInum]++ // the root is its own reference

	// 2–4. Tally every live block: each allocated inode's data and
	// indirect blocks (its inum, version and link count checked on the
	// way), one block per distinct inode-block address (whose inode count
	// must match inoBlockRefs), and the blocks the next checkpoint
	// references. The walker reports what goes wrong as a problem and never
	// fails.
	refs := make(map[int64]int)
	_ = fs.forEachLiveBlock(fs.liveFiles(func(inum uint32, mi *mInode) {
		if mi.ino.Inum != inum {
			r.problemf("inum %d: inode claims inum %d", inum, mi.ino.Inum)
		}
		if v := fs.imap.get(inum).Version; mi.ino.Version != v {
			r.problemf("inum %d: inode version %d != imap version %d", inum, mi.ino.Version, v)
		}
		if int(mi.ino.Nlink) != nlinks[inum] {
			r.problemf("inum %d: nlink %d, but %d directory references", inum, mi.ino.Nlink, nlinks[inum])
		}
	}, func(inum uint32, what string, err error) error {
		r.problemf("inum %d: %s: %v", inum, what, err)
		return nil
	}), func(kind layout.BlockKind, inum uint32, i int, addr int64) {
		if kind == layout.KindInode {
			r.Files += i
			if refs[addr] = i; fs.inoBlockRefs[addr] != i {
				r.problemf("inode block %d: refcount %d, want %d", addr, fs.inoBlockRefs[addr], i)
			}
		}
		if seg := fs.segOf(addr); seg >= 0 && seg < fs.nsegs {
			r.LiveBytesBySegment[seg] += layout.BlockSize
			return
		}
		switch kind {
		case layout.KindData:
			r.problemf("inum %d block %d at address %d outside segment area", inum, i, addr)
		case layout.KindIndirect:
			r.problemf("inum %d indirect at address %d outside segment area", inum, addr)
		case layout.KindInode:
			r.problemf("inode block at address %d outside segment area", addr)
		default:
			r.problemf("%s block %d at address %d outside segment area", kind, i, addr)
		}
	})
	for addr, n := range fs.inoBlockRefs {
		if refs[addr] == 0 {
			r.problemf("inode block %d: stale refcount %d", addr, n)
		}
	}

	// 5. Compare with the segment usage table.
	for s := int64(0); s < fs.nsegs; s++ {
		got := int64(fs.usage.get(s).LiveBytes)
		want := r.LiveBytesBySegment[s]
		if got != want {
			r.problemf("segment %d: usage table says %d live bytes, ground truth %d", s, got, want)
		}
		if fs.usage.isClean(s) && want != 0 {
			r.problemf("segment %d: marked clean but holds %d live bytes", s, want)
		}
	}

	// 6. The segment allocator agrees with itself and the usage table.
	r.Problems = append(r.Problems, fs.segs.audit(fs.usage)...)
	return r, nil
}

// CheckDeep runs Check plus the VerifyLog full-disk media sweep and
// merges the results into one report — the entry point behind
// `lfsck -deep`.
func (fs *FS) CheckDeep() (*CheckReport, error) {
	r, err := fs.Check()
	if err != nil {
		return nil, err
	}
	problems, err := fs.VerifyLog()
	if err != nil {
		return nil, err
	}
	r.Problems = append(r.Problems, problems...)
	return r, nil
}

// LiveBytesByKind returns the volume of live data on disk broken down by
// block type (the "Live data" column of Table 4). Buffered modifications
// are flushed first so the on-disk state is current.
func (fs *FS) LiveBytesByKind() (map[layout.BlockKind]int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.mounted {
		return nil, ErrUnmounted
	}
	if err := fs.flushLog(); err != nil {
		return nil, err
	}
	out := make(map[layout.BlockKind]int64)
	err := fs.forEachLiveBlock(fs.liveFiles(nil, func(_ uint32, _ string, err error) error { return err }),
		func(kind layout.BlockKind, _ uint32, _ int, _ int64) { out[kind] += layout.BlockSize })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// forEachLiveBlock calls fn for every live block, the one enumeration that
// Check, LiveBytesByKind, Scrub and salvage's usage rebuild share, in an
// order that repeats from call to call: for each allocated inode in inum
// order, the data and indirect blocks blocks(inum, visit) hands to visit (i
// the block number; the mounted maps' walk is liveFiles, salvage walks the
// pointers its scan verified); then each inode-block address in the inode
// map, in the order that loop first met it, with the lowest inum it holds
// and i how many allocated inodes it holds; then forEachCheckpointBlock's (i
// the index in their table). An error from blocks ends the walk.
func (fs *FS) forEachLiveBlock(blocks func(inum uint32, visit func(layout.BlockKind, uint32, int64) error) error, fn func(kind layout.BlockKind, inum uint32, i int, addr int64)) error {
	var inum uint32
	visit := func(kind layout.BlockKind, bn uint32, addr int64) error {
		fn(kind, inum, int(bn), addr)
		return nil
	}
	type inoBlock struct {
		addr  int64
		first uint32 // the lowest inum it holds
		n     int
	}
	inoBlocks := make([]inoBlock, 0, len(fs.inoBlockRefs)) // sized by the count it should reach
	at := make(map[int64]int, len(fs.inoBlockRefs))        // an address's index in inoBlocks
	for i, e := range fs.imap.entries {
		if !e.Allocated() {
			continue
		}
		inum = uint32(i)
		k, ok := at[e.Addr]
		if !ok {
			k = len(inoBlocks)
			at[e.Addr] = k
			inoBlocks = append(inoBlocks, inoBlock{addr: e.Addr, first: inum})
		}
		inoBlocks[k].n++
		if err := blocks(inum, visit); err != nil {
			return err
		}
	}
	for _, b := range inoBlocks {
		fn(layout.KindInode, b.first, b.n, b.addr)
	}
	fs.forEachCheckpointBlock(func(kind layout.BlockKind, i int, addr int64) { fn(kind, 0, i, addr) })
	return nil
}

// liveFiles is forEachLiveBlock's per-file walk over the mounted maps, the
// one Check, LiveBytesByKind and Scrub share: it loads inum's inode, shows it
// to file (if not nil), and hands visit its data blocks, then its indirect
// blocks. A walk that cannot load a pointer block ends there. fail hears what
// went wrong ("unreadable inode", "block walk" or "indirect walk", the last
// only where the data walk failed on the double-indirect top block too); an
// error it returns ends the enumeration.
func (fs *FS) liveFiles(file func(inum uint32, mi *mInode), fail func(inum uint32, what string, err error) error) func(uint32, func(layout.BlockKind, uint32, int64) error) error {
	return func(inum uint32, visit func(layout.BlockKind, uint32, int64) error) error {
		mi, err := fs.loadInode(inum)
		if err != nil {
			return fail(inum, "unreadable inode", err)
		}
		if file != nil {
			file(inum, mi)
		}
		err = fs.forEachBlockAddr(mi, func(bn uint32, addr int64) error { return visit(layout.KindData, bn, addr) })
		if err != nil {
			if err := fail(inum, "block walk", err); err != nil {
				return err
			}
		}
		err = fs.forEachIndirectAddr(mi, func(addr int64) error { return visit(layout.KindIndirect, 0, addr) })
		if err != nil {
			return fail(inum, "indirect walk", err)
		}
		return nil
	}
}

// forEachCheckpointBlock calls fn for every map-level block the next
// checkpoint references: the inode map and segment usage blocks, and the
// directory-log blocks written since the last checkpoint, which stay live
// for roll-forward unless their segment is already clean or pending. i is
// the block's index in its table. forEachLiveBlock (for Check,
// LiveBytesByKind, Scrub and salvage) enumerates these blocks here.
func (fs *FS) forEachCheckpointBlock(fn func(kind layout.BlockKind, i int, addr int64)) {
	for i, addr := range fs.imap.blockAddr {
		if addr != layout.NilAddr {
			fn(layout.KindImap, i, addr)
		}
	}
	for i, addr := range fs.usage.blockAddr {
		if addr != layout.NilAddr {
			fn(layout.KindSegUsage, i, addr)
		}
	}
	for i, addr := range fs.dirlogAddrs {
		seg := fs.segOf(addr)
		if seg >= 0 && seg < fs.nsegs && !fs.usage.isClean(seg) && !fs.segs.is(seg, segPending) {
			fn(layout.KindDirLog, i, addr)
		}
	}
}

// VerifyLog walks every segment's summary chain on disk and checks each
// block's CRC against its entry Sum, and their fold against DataChecksum
// (which the writer folds from the entries) — the deep, full-disk
// verification behind "lfsck -deep". Normal operation and recovery never
// need this scan; it exists to detect silent media corruption.
func (fs *FS) VerifyLog() ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.mounted {
		return nil, ErrUnmounted
	}
	if err := fs.flushLog(); err != nil {
		return nil, err
	}
	var problems []string
	s := fs.getWalkScratch()
	defer fs.putWalkScratch(s)
	buf := fs.rpool.Get(int(fs.segBlocks))
	defer fs.rpool.Put(buf)
	for seg := int64(0); seg < fs.nsegs; seg++ {
		w := fs.walkSegment(seg, s)
		for w.Next() {
			data := buf[:len(s.Entries)*layout.BlockSize]
			if err := fs.readRetry(w.DataAddr(), data); err != nil {
				return nil, err
			}
			var fold uint32
			for i, e := range s.Entries {
				got := layout.Checksum(data[i*layout.BlockSize : (i+1)*layout.BlockSize])
				if fold = layout.ChecksumAppendBlock(fold, got); got != e.Sum {
					problems = append(problems, fmt.Sprintf("segment %d offset %d (write seq %d): block %d (%s) checksum %08x, summary entry says %08x",
						seg, w.Off(), s.WriteSeq, w.DataAddr()+int64(i), e.Kind, got, e.Sum))
				}
			}
			if fold != s.DataChecksum {
				problems = append(problems,
					fmt.Sprintf("segment %d offset %d (write seq %d): data checksum %08x, summary says %08x",
						seg, w.Off(), s.WriteSeq, fold, s.DataChecksum))
			}
		}
		if _, err := fs.walkEnded(w.End()); err != nil {
			return nil, err
		}
	}
	return problems, nil
}
