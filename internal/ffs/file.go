package ffs

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/layout"
)

// blockAddr returns the FS-block address of file block bn, or
// layout.NilAddr for a hole.
func (fs *FS) blockAddr(ino *layout.Inode, bn uint32) int64 {
	if bn < layout.NumDirect {
		return ino.Direct[bn]
	}
	if a, ok := fs.ind[ino.Inum][bn]; ok {
		return a
	}
	return layout.NilAddr
}

// setBlockAddr points file block bn at addr, returning the previous
// address.
func (fs *FS) setBlockAddr(ino *layout.Inode, bn uint32, addr int64) int64 {
	if bn < layout.NumDirect {
		old := ino.Direct[bn]
		ino.Direct[bn] = addr
		return old
	}
	m := fs.ind[ino.Inum]
	old, ok := m[bn]
	if !ok {
		old = layout.NilAddr
	}
	if addr == layout.NilAddr {
		delete(m, bn)
	} else {
		m[bn] = addr
	}
	return old
}

// readAt reads file contents, coalescing contiguous on-disk runs into
// single device requests.
func (fs *FS) readAt(ino *layout.Inode, off int64, buf []byte) (int, error) {
	size := int64(ino.Size)
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset", ErrBadPath)
	}
	if off >= size {
		return 0, nil
	}
	if rem := size - off; int64(len(buf)) > rem {
		buf = buf[:rem]
	}
	bs := int64(fs.opts.BlockSize)
	total := 0
	for len(buf) > 0 {
		bn := uint32(off / bs)
		inBlock := int(off % bs)
		if blk, ok := fs.dcache[blockKey{ino.Inum, bn}]; ok {
			n := copy(buf, blk[inBlock:])
			buf, off, total = buf[n:], off+int64(n), total+n
			continue
		}
		addr := fs.blockAddr(ino, bn)
		if addr == layout.NilAddr {
			n := int(bs) - inBlock
			if n > len(buf) {
				n = len(buf)
			}
			for i := 0; i < n; i++ {
				buf[i] = 0
			}
			buf, off, total = buf[n:], off+int64(n), total+n
			continue
		}
		maxRun := (inBlock + len(buf) + int(bs) - 1) / int(bs)
		run := 1
		for run < maxRun {
			nb := bn + uint32(run)
			if _, dirty := fs.dcache[blockKey{ino.Inum, nb}]; dirty {
				break
			}
			if fs.blockAddr(ino, nb) != addr+int64(run) {
				break
			}
			run++
		}
		big := make([]byte, run*int(bs))
		if err := fs.dev.Read(fs.fsBlockDevAddr(addr), big); err != nil {
			return total, err
		}
		n := copy(buf, big[inBlock:])
		buf, off, total = buf[n:], off+int64(n), total+n
	}
	return total, nil
}

// writeAt buffers file modifications; dirty blocks are written back
// individually when the buffer fills or at Sync (the SunOS behaviour).
func (fs *FS) writeAt(ino *layout.Inode, off int64, data []byte) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset", ErrBadPath)
	}
	bs := int64(fs.opts.BlockSize)
	end := off + int64(len(data))
	if end > fs.maxFileBlocks()*bs {
		return 0, ErrTooBig
	}
	total := 0
	for len(data) > 0 {
		bn := uint32(off / bs)
		inBlock := int(off % bs)
		n := int(bs) - inBlock
		if n > len(data) {
			n = len(data)
		}
		key := blockKey{ino.Inum, bn}
		blk, dirty := fs.dcache[key]
		if !dirty {
			if inBlock != 0 || n != int(bs) {
				src := make([]byte, bs)
				if addr := fs.blockAddr(ino, bn); addr != layout.NilAddr {
					if err := fs.dev.Read(fs.fsBlockDevAddr(addr), src); err != nil {
						return total, err
					}
				}
				blk = src
			} else {
				blk = make([]byte, bs)
			}
			fs.dcache[key] = blk
		}
		copy(blk[inBlock:], data[:n])
		data = data[n:]
		off += int64(n)
		total += n
	}
	if uint64(end) > ino.Size {
		ino.Size = uint64(end)
	}
	fs.dirtyInodes[ino.Inum] = true
	if len(fs.dcache) >= fs.opts.WriteBufferBlocks {
		if err := fs.flushData(); err != nil {
			return total, err
		}
	}
	return total, nil
}

// flushData writes every dirty data block back to its (possibly freshly
// allocated) home, one device request per block — SunOS 4.0.3 "performs
// individual disk operations for each block" (Section 5.1).
func (fs *FS) flushData() error {
	if len(fs.dcache) == 0 {
		return nil
	}
	keys := make([]blockKey, 0, len(fs.dcache))
	for k := range fs.dcache {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].inum != keys[j].inum {
			return keys[i].inum < keys[j].inum
		}
		return keys[i].bn < keys[j].bn
	})
	for _, k := range keys {
		blk := fs.dcache[k]
		delete(fs.dcache, k)
		ino, ok := fs.inodes[k.inum]
		if !ok {
			continue // file deleted with dirty blocks pending
		}
		addr := fs.blockAddr(ino, k.bn)
		if addr == layout.NilAddr {
			var err error
			addr, err = fs.allocBlock(fs.groupOfInum(k.inum))
			if err != nil {
				return err
			}
			fs.setBlockAddr(ino, k.bn, addr)
			fs.dirtyInodes[k.inum] = true
		}
		if err := fs.writeFSBlock(addr, blk); err != nil {
			return err
		}
		fs.stats.DataWrites++
		fs.stats.NewDataBytes += int64(fs.opts.BlockSize)
	}
	return fs.syncIndirect()
}

// syncIndirect maintains and writes the indirect blocks of files whose
// indirect mapping changed. The mapping is kept in memory; what matters
// for the simulation is that the right number of metadata blocks occupy
// disk space and get written.
func (fs *FS) syncIndirect() error {
	for _, inum := range fs.dirtyInums() {
		ino, ok := fs.inodes[inum]
		if !ok {
			continue
		}
		if err := fs.reshapeIndirect(ino); err != nil {
			return err
		}
	}
	return nil
}

// indBlockAddrs returns (and mutates) the list of indirect-block
// addresses for the inode, stored in Indirect (first) and a chain kept in
// memory keyed by the inode.
type indState struct {
	addrs []int64
}

// reshapeIndirect allocates or frees indirect blocks to match the number
// of indirect pointers the file currently needs, and writes the dirty
// ones.
func (fs *FS) reshapeIndirect(ino *layout.Inode) error {
	mapped := len(fs.ind[ino.Inum])
	need := 0
	if mapped > 0 {
		need = (mapped + fs.ptrsPerBlk - 1) / fs.ptrsPerBlk
		if need > 1 {
			need++ // a double-indirect top block
		}
	}
	st := fs.indBlocks(ino.Inum)
	for len(st.addrs) < need {
		addr, err := fs.allocBlock(fs.groupOfInum(ino.Inum))
		if err != nil {
			return err
		}
		st.addrs = append(st.addrs, addr)
	}
	for len(st.addrs) > need {
		last := st.addrs[len(st.addrs)-1]
		st.addrs = st.addrs[:len(st.addrs)-1]
		if err := fs.freeBlock(last); err != nil {
			return err
		}
	}
	if need > 0 {
		ino.Indirect = st.addrs[0]
	} else {
		ino.Indirect = layout.NilAddr
	}
	// Write the indirect blocks (serialized pointer lists) so fsck has
	// real metadata to scan.
	if need > 0 {
		ptrs := make([]int64, 0, mapped)
		bns := make([]uint32, 0, mapped)
		for bn := range fs.ind[ino.Inum] {
			bns = append(bns, bn)
		}
		sort.Slice(bns, func(i, j int) bool { return bns[i] < bns[j] })
		for _, bn := range bns {
			ptrs = append(ptrs, fs.ind[ino.Inum][bn])
		}
		for i, addr := range st.addrs {
			buf := make([]byte, fs.opts.BlockSize)
			le := binary.LittleEndian
			lo := i * fs.ptrsPerBlk
			for j := 0; j < fs.ptrsPerBlk && lo+j < len(ptrs); j++ {
				le.PutUint64(buf[j*8:], uint64(ptrs[lo+j]))
			}
			if err := fs.writeFSBlock(addr, buf); err != nil {
				return err
			}
			fs.stats.MetadataBytes += int64(fs.opts.BlockSize)
		}
	}
	return nil
}

// indBlocksByInum tracks allocated indirect blocks per inode.
func (fs *FS) indBlocks(inum uint32) *indState {
	if fs.indBlk == nil {
		fs.indBlk = make(map[uint32]*indState)
	}
	st, ok := fs.indBlk[inum]
	if !ok {
		st = &indState{}
		fs.indBlk[inum] = st
	}
	return st
}

// truncate shrinks or extends the file.
func (fs *FS) truncate(ino *layout.Inode, size int64) error {
	if size < 0 {
		return fmt.Errorf("%w: negative size", ErrBadPath)
	}
	bs := int64(fs.opts.BlockSize)
	if size > fs.maxFileBlocks()*bs {
		return ErrTooBig
	}
	old := int64(ino.Size)
	if size < old {
		keep := uint32((size + bs - 1) / bs)
		for k := range fs.dcache {
			if k.inum == ino.Inum && k.bn >= keep {
				delete(fs.dcache, k)
			}
		}
		for bn := keep; bn < layout.NumDirect; bn++ {
			if a := ino.Direct[bn]; a != layout.NilAddr {
				if err := fs.freeBlock(a); err != nil {
					return err
				}
				ino.Direct[bn] = layout.NilAddr
			}
		}
		for bn, a := range fs.ind[ino.Inum] {
			if bn >= keep {
				if err := fs.freeBlock(a); err != nil {
					return err
				}
				delete(fs.ind[ino.Inum], bn)
			}
		}
		if size != 0 && size%bs != 0 {
			bn := uint32(size / bs)
			key := blockKey{ino.Inum, bn}
			blk, dirty := fs.dcache[key]
			if !dirty {
				src := make([]byte, bs)
				if addr := fs.blockAddr(ino, bn); addr != layout.NilAddr {
					if err := fs.dev.Read(fs.fsBlockDevAddr(addr), src); err != nil {
						return err
					}
				}
				blk = src
				fs.dcache[key] = blk
			}
			for i := size % bs; i < bs; i++ {
				blk[i] = 0
			}
		}
	}
	ino.Size = uint64(size)
	fs.dirtyInodes[ino.Inum] = true
	return nil
}

// removeFile releases all blocks and the inode.
func (fs *FS) removeFile(inum uint32) error {
	ino, ok := fs.inodes[inum]
	if !ok {
		return fmt.Errorf("%w: inum %d", ErrNotFound, inum)
	}
	if err := fs.truncate(ino, 0); err != nil {
		return err
	}
	if st, ok := fs.indBlk[inum]; ok {
		for _, a := range st.addrs {
			if err := fs.freeBlock(a); err != nil {
				return err
			}
		}
		delete(fs.indBlk, inum)
	}
	delete(fs.inodes, inum)
	delete(fs.ind, inum)
	delete(fs.dirtyInodes, inum)
	delete(fs.dirCache, inum)
	delete(fs.dirBytes, inum)
	fs.freeInode(inum)
	// The freed inode's table block is written synchronously, as FFS
	// does for unlink.
	if err := fs.writeInodeSync(inum); err != nil {
		return err
	}
	fs.stats.FilesDeleted++
	return nil
}
