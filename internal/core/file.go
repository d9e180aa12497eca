package core

import (
	"errors"
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// readFileBlockInto copies the contents of file block bn into dst (one
// full block), consulting the dirty file cache first, then the read
// cache, then the device. Holes read as zeros. dst is typically a
// pooled buffer the caller owns; on return it never aliases cache
// storage, so the caller may mutate it freely. Its callers are the write
// path's two read-before-write sites (writeAtPrepared, truncate), so a
// fetch of the stored block is what fs.write.rmw.reads counts.
func (fs *FS) readFileBlockInto(mi *mInode, bn uint32, dst []byte) error {
	if b, ok := fs.dcache[blockKey{mi.ino.Inum, bn}]; ok {
		copy(dst, b)
		return nil
	}
	addr, err := fs.blockAddr(mi, bn)
	if err != nil {
		return err
	}
	if addr == layout.NilAddr {
		clear(dst)
		return nil
	}
	fs.tr.Add(obs.CtrWriteRMWReads, 1)
	if b, ok := fs.rc.get(addr); ok {
		copy(dst, b)
		return nil
	}
	// dst is the caller's to mutate, so it cannot become cache storage:
	// read into it and give the cache a copy.
	if err = fs.readVerified(addr, dst); err == nil {
		fs.cacheCopy(addr, dst)
	}
	return attributeCorruption(err, mi.ino.Inum, int64(bn)*layout.BlockSize)
}

// readAt reads up to len(buf) bytes from the file at off, returning how
// many bytes were read. Reads past end of file return 0.
func (fs *FS) readAt(mi *mInode, off int64, buf []byte) (int, error) {
	size := int64(mi.ino.Size)
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset", ErrBadPath)
	}
	if off >= size {
		return 0, nil
	}
	if rem := size - off; int64(len(buf)) > rem {
		buf = buf[:rem]
	}
	total := 0
	for len(buf) > 0 {
		bn := uint32(off / layout.BlockSize)
		inBlock := int(off % layout.BlockSize)
		inum := mi.ino.Inum
		if blk, ok := fs.dcache[blockKey{inum, bn}]; ok {
			n := copy(buf, blk[inBlock:])
			buf, off, total = buf[n:], off+int64(n), total+n
			continue
		}
		addr, err := fs.blockAddr(mi, bn)
		if err != nil {
			return total, err
		}
		if addr == layout.NilAddr {
			n := layout.BlockSize - inBlock
			if n > len(buf) {
				n = len(buf)
			}
			for i := 0; i < n; i++ {
				buf[i] = 0
			}
			buf, off, total = buf[n:], off+int64(n), total+n
			continue
		}
		// Serve the block straight from the read cache when present
		// (cached slices are immutable, so copying outside the cache's
		// lock is safe).
		if blk, ok := fs.rc.get(addr); ok {
			n := copy(buf, blk[inBlock:])
			buf, off, total = buf[n:], off+int64(n), total+n
			continue
		}
		// Coalesce a run of blocks that are contiguous on disk into one
		// device request. Files written sequentially are packed
		// contiguously in the log, so sequential reads of them run at
		// near-full bandwidth — with or without a read cache (a cached
		// configuration that issued one request per block would pay a
		// half-rotation per 4 KB). Dirty or already-cached blocks end
		// the run; they are served from memory on the next iteration.
		maxRun := (inBlock + len(buf) + layout.BlockSize - 1) / layout.BlockSize
		run := 1
		for run < maxRun {
			nb := bn + uint32(run)
			if _, dirty := fs.dcache[blockKey{inum, nb}]; dirty {
				break
			}
			a2, err := fs.blockAddr(mi, nb)
			if err != nil || a2 != addr+int64(run) {
				break
			}
			if _, ok := fs.rc.get(addr + int64(run)); ok {
				break
			}
			run++
		}
		var n int
		if run == 1 {
			// Read into a pooled block and copy out; the block then
			// becomes the cache's (ownership transfer, no copy) or, with
			// no read cache to take it, goes straight back to the pool.
			blk := fs.bpool.Get()
			if err := fs.readVerified(addr, blk); err != nil {
				fs.bpool.Put(blk)
				return total, attributeCorruption(err, inum, int64(bn)*layout.BlockSize)
			}
			n = copy(buf, blk[inBlock:])
			if !fs.rc.put(addr, blk) {
				fs.bpool.Put(blk)
			}
		} else {
			big := fs.rpool.Get(run)
			err := fs.readRetry(addr, big)
			if errors.Is(err, disk.ErrMediaRead) {
				// One bad sector fails the whole coalesced request; fall
				// back to per-block reads so the healthy blocks still
				// arrive and only the faulted one surfaces an error.
				err = nil
				for i := 0; i < run && err == nil; i++ {
					var blk []byte
					if blk, err = fs.readDiskBlock(addr + int64(i)); err == nil {
						copy(big[i*layout.BlockSize:], blk)
					} else {
						err = attributeCorruption(err, inum, int64(bn+uint32(i))*layout.BlockSize)
					}
				}
			} else if err == nil {
				// Verify every block of the coalesced read before it is
				// served or cached, exactly like the single-block path.
				for i := 0; i < run; i++ {
					s := big[i*layout.BlockSize : (i+1)*layout.BlockSize]
					if verr := fs.verifyBlock(addr+int64(i), s); verr != nil {
						err = attributeCorruption(verr, inum, int64(bn+uint32(i))*layout.BlockSize)
						break
					}
					// Populate the read cache from the coalesced read so a
					// re-read is served from memory (with a copy: big itself
					// goes back to the run pool below).
					fs.cacheCopy(addr+int64(i), s)
				}
			}
			if err != nil {
				fs.rpool.Put(big)
				return total, err
			}
			n = copy(buf, big[inBlock:])
			fs.rpool.Put(big)
		}
		buf, off, total = buf[n:], off+int64(n), total+n
	}
	return total, nil
}

// preparedWrite carries the block-aligned body of a WriteAt payload,
// chopped into private block buffers outside fs.mu (prepareWrite), so
// the staging critical section installs ready-made buffers instead of
// allocating and copying under the lock.
type preparedWrite struct {
	base uint32   // block number of blks[0]
	blks [][]byte // one full private buffer per fully-covered block
}

// prepareWrite copies every fully-covered block of the write into its
// own pooled block buffer. It touches no file system state beyond the
// (internally locked) buffer pool and may run before fs.mu is taken.
// Returns nil when no block is fully covered. The caller must arrange
// for release to run after the write, returning unconsumed buffers.
func (fs *FS) prepareWrite(off int64, data []byte) *preparedWrite {
	if off < 0 {
		return nil
	}
	end := off + int64(len(data))
	first := (off + layout.BlockSize - 1) / layout.BlockSize // first aligned block
	last := end / layout.BlockSize                           // one past the last full block
	if last <= first {
		return nil
	}
	p := &preparedWrite{base: uint32(first), blks: make([][]byte, last-first)}
	for i := range p.blks {
		blk := fs.bpool.Get()
		src := (first+int64(i))*layout.BlockSize - off
		copy(blk, data[src:])
		p.blks[i] = blk
	}
	return p
}

// take surrenders the prepared buffer for block bn, or nil when the
// block was not prepared (or was already consumed).
func (p *preparedWrite) take(bn uint32) []byte {
	if p == nil || bn < p.base || bn >= p.base+uint32(len(p.blks)) {
		return nil
	}
	blk := p.blks[bn-p.base]
	p.blks[bn-p.base] = nil
	return blk
}

// release returns every unconsumed prepared buffer to the pool.
// Consumed buffers were nil'd by take, so release is safe to defer
// unconditionally (including on the error paths that never stage).
func (p *preparedWrite) release(pool *bufpool.Pool) {
	if p == nil {
		return
	}
	for i, b := range p.blks {
		pool.Put(b)
		p.blks[i] = nil
	}
}

// writeAt writes data into the file at off, extending it as needed. The
// modification is buffered in the file cache; a log flush happens when the
// write buffer fills (the paper's asynchronous write behaviour).
func (fs *FS) writeAt(mi *mInode, off int64, data []byte) (int, error) {
	return fs.writeAtPrepared(mi, off, data, nil)
}

// writeAtPrepared is writeAt with an optional preparedWrite holding the
// payload's full blocks, pre-copied outside fs.mu by the public entry
// points. The returned count always equals the bytes staged in the file
// cache, including on error — what a later successful flush makes
// durable.
func (fs *FS) writeAtPrepared(mi *mInode, off int64, data []byte, prep *preparedWrite) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset", ErrBadPath)
	}
	end := off + int64(len(data))
	if end > int64(layout.MaxFileBlocks)*layout.BlockSize {
		return 0, ErrFileTooBig
	}
	inum := mi.ino.Inum
	total := 0
	var err error
	for len(data) > 0 {
		bn := uint32(off / layout.BlockSize)
		inBlock := int(off % layout.BlockSize)
		n := layout.BlockSize - inBlock
		if n > len(data) {
			n = len(data)
		}
		key := blockKey{inum, bn}
		blk, dirty := fs.dcache[key]
		copied := false
		if !dirty {
			// Materialize the indirect path now so placement at flush
			// time needs no allocation or I/O.
			if err = fs.ensureMapSlot(mi, bn); err != nil {
				break
			}
			if n != layout.BlockSize {
				// A partial block. Written from its first byte to EOF or
				// beyond, no old byte survives and the bytes past EOF are
				// zeros (DESIGN.md §3c "When the write path reads").
				// Otherwise read-modify-write: old bytes survive in front
				// of the write or between its end and EOF.
				blk = fs.bpool.Get()
				if inBlock == 0 && off+int64(n) >= int64(mi.ino.Size) {
					clear(blk[n:])
				} else if err = fs.readFileBlockInto(mi, bn, blk); err != nil {
					fs.bpool.Put(blk)
					break
				}
			} else if pb := prep.take(bn); pb != nil {
				// Fully-overwritten block with its payload already copied
				// in outside the lock.
				blk, copied = pb, true
			} else {
				// Fully overwritten below; stale pooled contents are fine.
				blk = fs.bpool.Get()
			}
			fs.dcache[key] = blk
			fs.dirtyBlocks++
		}
		if !copied {
			copy(blk[inBlock:], data[:n])
		}
		data = data[n:]
		off += int64(n)
		total += n
	}
	// Size covers what was staged even when a read failed part-way: no
	// dirty block lies at or past ⌈Size/BlockSize⌉ (dropBlocksFrom walks
	// that range), and a later flush makes the returned count durable.
	if uint64(off) > mi.ino.Size {
		mi.ino.Size = uint64(off)
	}
	mi.ino.Mtime = fs.now()
	fs.markInodeDirty(inum)
	if err != nil {
		return total, err
	}
	if fs.dirtyBlocks >= fs.opts.WriteBufferBlocks {
		if err := fs.flushLog(); err != nil {
			return total, err
		}
		// A single large write can span many buffer flushes; keep the
		// clean-segment pool topped up between them, not just at the
		// end of the operation.
		if err := fs.epilogue(); err != nil {
			return total, err
		}
	}
	return total, nil
}

// markInodeDirty queues the inode for the next log write and dirties its
// covering inode-map block (the map entry will change when the inode is
// placed).
func (fs *FS) markInodeDirty(inum uint32) {
	fs.dirtyInodes[inum] = true
	fs.imap.markDirty(fs.imap.blockOf(inum))
}

// truncate shrinks or extends the file to size bytes.
func (fs *FS) truncate(mi *mInode, size int64) error {
	if size < 0 {
		return fmt.Errorf("%w: negative size", ErrBadPath)
	}
	if size > int64(layout.MaxFileBlocks)*layout.BlockSize {
		return ErrFileTooBig
	}
	old := int64(mi.ino.Size)
	inum := mi.ino.Inum
	if size < old {
		keep := uint32((size + layout.BlockSize - 1) / layout.BlockSize)
		if err := fs.dropBlocksFrom(mi, keep); err != nil {
			return err
		}
		// Unlike Sprite LFS we do not bump the version here: the version
		// doubles as the incarnation uid that directory-operation-log
		// replay matches against, and truncation must not change the
		// file's identity. Truncated blocks are still detected as dead
		// by the block-pointer liveness check.
		if size != 0 && size%layout.BlockSize != 0 {
			// Zero the tail of the new last block so that a later
			// extension reads zeros, not stale bytes.
			bn := uint32(size / layout.BlockSize)
			key := blockKey{inum, bn}
			blk, dirty := fs.dcache[key]
			if !dirty {
				blk = fs.bpool.Get()
				if err := fs.readFileBlockInto(mi, bn, blk); err != nil {
					fs.bpool.Put(blk)
					return err
				}
				fs.dcache[key] = blk
				fs.dirtyBlocks++
				if err := fs.ensureMapSlot(mi, bn); err != nil {
					return err
				}
			}
			for i := size % layout.BlockSize; i < layout.BlockSize; i++ {
				blk[i] = 0
			}
		}
	}
	mi.ino.Size = uint64(size)
	mi.ino.Mtime = fs.now()
	fs.markInodeDirty(inum)
	return nil
}

// dropBlocksFrom releases every data block with index >= keep, plus any
// indirect blocks that become empty.
func (fs *FS) dropBlocksFrom(mi *mInode, keep uint32) error {
	inum := mi.ino.Inum
	// Dirty cache blocks beyond the cut vanish — back into the pool:
	// truncation runs under fs.mu.Lock, so no reader can still hold a
	// view of a dirty block. They lie below ⌈Size/BlockSize⌉ (writeAt
	// extends Size over what it stages): probe that range or scan the
	// cache, whichever is shorter — one probe for a one-block file under a
	// full write buffer, a near-empty map for a 64 MB file.
	end := uint32((mi.ino.Size + layout.BlockSize - 1) / layout.BlockSize)
	if int(end-keep) <= len(fs.dcache) {
		for bn := keep; bn < end; bn++ {
			fs.dropDirty(blockKey{inum, bn})
		}
	} else {
		for k := range fs.dcache {
			if k.inum == inum && k.bn >= keep {
				fs.dropDirty(k)
			}
		}
	}
	var drop []uint32
	err := fs.forEachBlockAddr(mi, func(bn uint32, addr int64) error {
		if bn >= keep {
			drop = append(drop, bn)
			return fs.decLive(addr)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, bn := range drop {
		if err := fs.ensureMapSlot(mi, bn); err != nil {
			return err
		}
		if _, err := fs.setBlockAddr(mi, bn, layout.NilAddr); err != nil {
			return err
		}
	}
	// Release indirect blocks that are now entirely unused.
	return fs.releasePtrsFrom(mi, keep)
}

// dropDirty returns the dirty block at k, if there is one, to the pool.
func (fs *FS) dropDirty(k blockKey) {
	if blk, ok := fs.dcache[k]; ok {
		fs.bpool.Put(blk)
		delete(fs.dcache, k)
		fs.dirtyBlocks--
	}
}

// removeFile releases every block of the file, frees its inode, and bumps
// the version so stale log blocks are recognizably dead (Section 3.3).
func (fs *FS) removeFile(inum uint32) error {
	mi, err := fs.loadInode(inum)
	if err != nil {
		return err
	}
	if err := fs.dropBlocksFrom(mi, 0); err != nil {
		return err
	}
	e := fs.imap.get(inum)
	if err := fs.decInoBlockRef(e.Addr); err != nil {
		return err
	}
	fs.imap.setVersion(inum, e.Version+1)
	fs.imap.free(inum)
	delete(fs.icache, inum)
	delete(fs.dirtyInodes, inum)
	delete(fs.dirCache, inum)
	fs.freeInums = append(fs.freeInums, inum)
	fs.stats.FilesDeleted++
	return nil
}
