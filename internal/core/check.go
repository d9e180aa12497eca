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

	tally := func(addr int64, what string) {
		seg := fs.segOf(addr)
		if seg < 0 || seg >= fs.nsegs {
			r.problemf("%s at address %d outside segment area", what, addr)
			return
		}
		r.LiveBytesBySegment[seg] += layout.BlockSize
	}

	// 1. Walk every allocated inode's block map.
	refs := make(map[int64]int)
	nlinks := make(map[uint32]int)
	for inum32 := 0; inum32 < fs.imap.maxInodes(); inum32++ {
		inum := uint32(inum32)
		e := fs.imap.get(inum)
		if !e.Allocated() {
			continue
		}
		r.Files++
		refs[e.Addr]++
		mi, err := fs.loadInode(inum)
		if err != nil {
			r.problemf("inum %d: unreadable inode: %v", inum, err)
			continue
		}
		if mi.ino.Inum != inum {
			r.problemf("inum %d: inode claims inum %d", inum, mi.ino.Inum)
		}
		if mi.ino.Version != e.Version {
			r.problemf("inum %d: inode version %d != imap version %d", inum, mi.ino.Version, e.Version)
		}
		err = fs.forEachBlockAddr(mi, func(bn uint32, addr int64) error {
			tally(addr, fmt.Sprintf("inum %d block %d", inum, bn))
			return nil
		})
		if err != nil {
			r.problemf("inum %d: block walk: %v", inum, err)
		}
		err = fs.forEachIndirectAddr(mi, func(addr int64) error {
			tally(addr, fmt.Sprintf("inum %d indirect", inum))
			return nil
		})
		if err != nil {
			r.problemf("inum %d: indirect walk: %v", inum, err)
		}
	}

	// 2. Inode blocks: one live block per distinct address in the map.
	for addr, n := range refs {
		tally(addr, "inode block")
		if got := fs.inoBlockRefs[addr]; got != n {
			r.problemf("inode block %d: refcount %d, want %d", addr, got, n)
		}
	}
	for addr, n := range fs.inoBlockRefs {
		if refs[addr] == 0 {
			r.problemf("inode block %d: stale refcount %d", addr, n)
		}
	}

	// 3. Metadata blocks referenced by the (next) checkpoint.
	for i, addr := range fs.imap.blockAddr {
		if addr != layout.NilAddr {
			tally(addr, fmt.Sprintf("imap block %d", i))
		}
	}
	for i, addr := range fs.usage.blockAddr {
		if addr != layout.NilAddr {
			tally(addr, fmt.Sprintf("usage block %d", i))
		}
	}
	for _, addr := range fs.dirlogAddrs {
		seg := fs.segOf(addr)
		if seg >= 0 && seg < fs.nsegs && !fs.usage.isClean(seg) && !fs.segs.is(seg, segPending) {
			tally(addr, "dirlog block")
		}
	}

	// 4. Compare with the segment usage table.
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

	// 5. Directory tree: every entry resolves, link counts match.
	var walk func(inum uint32, path string)
	seen := make(map[uint32]bool)
	walk = func(inum uint32, path string) {
		if seen[inum] {
			r.problemf("directory %s (inum %d) reached twice", path, inum)
			return
		}
		seen[inum] = true
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
	for inum32 := 0; inum32 < fs.imap.maxInodes(); inum32++ {
		inum := uint32(inum32)
		if !fs.imap.get(inum).Allocated() {
			continue
		}
		mi, err := fs.loadInode(inum)
		if err != nil {
			continue // already reported
		}
		if int(mi.ino.Nlink) != nlinks[inum] {
			r.problemf("inum %d: nlink %d, but %d directory references", inum, mi.ino.Nlink, nlinks[inum])
		}
	}

	// 6. The segment allocator agrees with itself and the usage table.
	r.Problems = append(r.Problems, fs.segs.audit(fs.usage)...)
	return r, nil
}

// CheckDeep runs Check plus the VerifyLog full-disk media sweep and
// merges the results into one report — the single entry point behind
// both `lfsck -deep` and `lfsh fsck -deep`, so the two tools cannot
// drift.
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
	for inum32 := 0; inum32 < fs.imap.maxInodes(); inum32++ {
		inum := uint32(inum32)
		if !fs.imap.get(inum).Allocated() {
			continue
		}
		mi, err := fs.loadInode(inum)
		if err != nil {
			return nil, err
		}
		err = fs.forEachBlockAddr(mi, func(bn uint32, addr int64) error {
			out[layout.KindData] += layout.BlockSize
			return nil
		})
		if err != nil {
			return nil, err
		}
		err = fs.forEachIndirectAddr(mi, func(addr int64) error {
			out[layout.KindIndirect] += layout.BlockSize
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	out[layout.KindInode] = int64(len(fs.inoBlockRefs)) * layout.BlockSize
	for _, addr := range fs.imap.blockAddr {
		if addr != layout.NilAddr {
			out[layout.KindImap] += layout.BlockSize
		}
	}
	for _, addr := range fs.usage.blockAddr {
		if addr != layout.NilAddr {
			out[layout.KindSegUsage] += layout.BlockSize
		}
	}
	for _, addr := range fs.dirlogAddrs {
		seg := fs.segOf(addr)
		if seg >= 0 && seg < fs.nsegs && !fs.usage.isClean(seg) && !fs.segs.is(seg, segPending) {
			out[layout.KindDirLog] += layout.BlockSize
		}
	}
	return out, nil
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
