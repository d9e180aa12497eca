package core

import (
	"fmt"
	"sync"

	"repro/internal/layout"
	"repro/internal/obs"
)

// The roles of the pointer blocks in a file's block map. A role is what
// the block's summary entry carries in BlockNo (layout.Role*), so the
// cleaner and recovery name a pointer block the way the map holds it.
const (
	indRoleSingle  = layout.RoleSingle // maps the PointersPerBlock file blocks from firstIndirect
	indRoleDTop    = layout.RoleDTop   // holds the addresses of the level-2 blocks
	indRoleL2Base  = layout.RoleL2Base // + i: maps those from firstDIndirect + i·PointersPerBlock
	numIndRoles    = indRoleL2Base + layout.PointersPerBlock
	indRoleInode   = ^uint32(0) // slotOf's answer for a direct block: the pointer is in the inode
	firstIndirect  = layout.NumDirect
	firstDIndirect = layout.NumDirect + layout.PointersPerBlock
)

// ptrBlock is one loaded pointer block: 512 block addresses, and whether
// they differ from what its parent pointer references on disk.
type ptrBlock struct {
	cells []int64
	dirty bool
}

// mInode is the in-memory representation of an inode: the on-disk fields,
// inline (one allocation per inode), plus its lazily loaded pointer blocks.
//
// mu orders the lazy pointer-block loads, which can be triggered by
// concurrent readers holding only FS.mu.RLock. The ino fields, the
// pointers and the dirty flags are mutated only under FS.mu.Lock and
// need no extra guard; readers treat them as read-only.
type mInode struct {
	mu  sync.Mutex
	ino layout.Inode
	// ptr holds the loaded pointer blocks by role (nil: not loaded). It
	// grows on demand, so a file with no indirect block allocates nothing.
	ptr []*ptrBlock
	// dir is a directory's one in-memory copy, as decoded entries (saveDir
	// is told which entry a change touched, so no byte image is kept beside
	// it): nil until loaded, and it lives as long as the mInode. A pointer
	// keeps an mInode in its size class. FS.dirCacheMu guards it.
	dir *[]layout.DirEntry
}

func newMInode(ino layout.Inode) *mInode { return &mInode{ino: ino} }

// replace makes mi a later incarnation, ino, dropping the old one's
// pointers and entries.
func (mi *mInode) replace(ino layout.Inode) { mi.ino, mi.ptr, mi.dir = ino, nil, nil }

func nilPointerBlock() []int64 {
	p := make([]int64, layout.PointersPerBlock)
	for i := range p {
		p[i] = layout.NilAddr
	}
	return p
}

// slotOf locates file block bn in the block map: the role of the pointer
// block that holds its address (indRoleInode for a direct block) and the
// index within it.
func slotOf(bn uint32) (role uint32, idx int, err error) {
	switch {
	case bn < firstIndirect:
		return indRoleInode, int(bn), nil
	case bn < firstDIndirect:
		return indRoleSingle, int(bn - firstIndirect), nil
	case uint64(bn) < uint64(layout.MaxFileBlocks):
		rel := int(bn - firstDIndirect)
		return indRoleL2Base + uint32(rel/layout.PointersPerBlock), rel % layout.PointersPerBlock, nil
	default:
		return 0, 0, ErrFileTooBig
	}
}

// firstBlockOf is slotOf's inverse: the first file block that the pointer
// block with the given role maps — for the top block, the first one under
// any of its level-2 blocks.
func firstBlockOf(role uint32) uint32 {
	switch role {
	case indRoleSingle:
		return firstIndirect
	case indRoleDTop:
		return firstDIndirect
	default:
		return firstDIndirect + (role-indRoleL2Base)*layout.PointersPerBlock
	}
}

// loaded returns the pointer block with the given role if it is in memory.
func (mi *mInode) loaded(role uint32) *ptrBlock {
	if int(role) < len(mi.ptr) {
		return mi.ptr[role]
	}
	return nil
}

// parent returns the cell that holds the disk address of the pointer block
// with the given role: a field of the inode, or for a level-2 block a cell
// of the top block — nil while that is not loaded.
func (mi *mInode) parent(role uint32) *int64 {
	switch role {
	case indRoleSingle:
		return &mi.ino.Indirect
	case indRoleDTop:
		return &mi.ino.DIndir
	}
	if top := mi.loaded(indRoleDTop); top != nil {
		return &top.cells[role-indRoleL2Base]
	}
	return nil
}

// loadInode returns the cached in-memory inode for inum, reading it from
// the log if necessary. It may run under mu.RLock: the cache insert is
// a double-check, so concurrent readers that miss together converge on
// a single mInode.
func (fs *FS) loadInode(inum uint32) (*mInode, error) {
	fs.icacheMu.Lock()
	mi := fs.icache.get(inum)
	fs.icacheMu.Unlock()
	if mi != nil {
		return mi, nil
	}
	fs.imapMu.Lock()
	e := fs.imap.get(inum)
	fs.imapMu.Unlock()
	if !e.Allocated() {
		return nil, fmt.Errorf("%w: inum %d", ErrNotFound, inum)
	}
	buf, err := fs.readDiskBlock(e.Addr)
	if err != nil {
		return nil, attributeCorruption(err, inum, -1)
	}
	ib, err := layout.OpenInodeBlock(buf)
	if err != nil {
		// The block passed (or skipped) summary verification but fails
		// its own checksum: silent corruption of a packed inode block.
		fs.tr.Add(obs.CtrCorruptBlocks, 1)
		fs.quarantineSeg(fs.segOf(e.Addr))
		return nil, &ErrCorrupted{Ino: inum, Offset: -1, Addr: e.Addr}
	}
	ino, ok := ib.Inode(int(e.Slot))
	if !ok || ino.Inum != inum {
		return nil, fmt.Errorf("%w: imap slot %d of block %d does not hold inum %d", ErrCorrupt, e.Slot, e.Addr, inum)
	}
	mi = newMInode(ino)
	fs.icacheMu.Lock()
	if cached := fs.icache.get(inum); cached != nil {
		mi = cached
	} else {
		fs.icache.put(inum, mi)
	}
	fs.icacheMu.Unlock()
	return mi, nil
}

// loadPtr returns the pointer block with the given role, reading it from
// the log if necessary. A block the file does not have — its parent
// pointer is nil, or for a level-2 block there is no top block — comes
// back nil unless materialise asks for an empty one to be made.
func (fs *FS) loadPtr(mi *mInode, role uint32, materialise bool) (*ptrBlock, error) {
	mi.mu.Lock()
	defer mi.mu.Unlock()
	return fs.loadPtrLocked(mi, role, materialise)
}

// loadPtrLocked is loadPtr with mi.mu already held.
func (fs *FS) loadPtrLocked(mi *mInode, role uint32, materialise bool) (*ptrBlock, error) {
	if p := mi.loaded(role); p != nil {
		return p, nil
	}
	if role >= indRoleL2Base {
		if top, err := fs.loadPtrLocked(mi, indRoleDTop, materialise); top == nil {
			return nil, err
		}
	}
	var cells []int64
	if addr := *mi.parent(role); addr != layout.NilAddr {
		buf, err := fs.readDiskBlock(addr)
		if err != nil {
			return nil, err
		}
		cells = layout.DecodeIndirectBlock(buf)
	} else if materialise {
		cells = nilPointerBlock()
	} else {
		return nil, nil
	}
	p := &ptrBlock{cells: cells}
	for int(role) >= len(mi.ptr) {
		mi.ptr = append(mi.ptr, nil)
	}
	mi.ptr[role] = p
	return p, nil
}

// blockAddr returns the disk address of file block bn, or NilAddr for a
// hole. It may run under mu.RLock; the indirect cases take mi.mu
// because they can lazily load (and therefore mutate) the in-memory
// pointer blocks.
func (fs *FS) blockAddr(mi *mInode, bn uint32) (int64, error) {
	role, idx, err := slotOf(bn)
	if err != nil {
		return 0, err
	}
	if role == indRoleInode {
		return mi.ino.Direct[idx], nil
	}
	p, err := fs.loadPtr(mi, role, false)
	if p == nil {
		return layout.NilAddr, err
	}
	return p.cells[idx], nil
}

// loadedAddr is blockAddr without a load: ok is false when the pointer
// block that maps bn is not in memory.
func (mi *mInode) loadedAddr(bn uint32) (addr int64, ok bool) {
	role, idx, err := slotOf(bn)
	if err == nil && role == indRoleInode {
		return mi.ino.Direct[idx], true
	}
	mi.mu.Lock()
	defer mi.mu.Unlock()
	if p := mi.loaded(role); err == nil && p != nil {
		return p.cells[idx], true
	}
	return 0, false
}

// ptrAddr returns the disk address of the pointer block with the given
// role, NilAddr when the file has none (or no file can: roles come off
// the disk).
func (fs *FS) ptrAddr(mi *mInode, role uint32) (int64, error) {
	if role >= numIndRoles {
		return layout.NilAddr, nil
	}
	if role >= indRoleL2Base {
		if top, err := fs.loadPtr(mi, indRoleDTop, false); top == nil {
			return layout.NilAddr, err
		}
	}
	return *mi.parent(role), nil
}

// dirtyPtr loads the pointer block with the given role, materializing it
// if the file has none, and marks it — and the top block above a level-2
// block, whose cell will change — for rewriting by the next flush.
func (fs *FS) dirtyPtr(mi *mInode, role uint32) error {
	p, err := fs.loadPtr(mi, role, true)
	if err != nil {
		return err
	}
	fs.markPtrDirty(p)
	if role >= indRoleL2Base {
		fs.markPtrDirty(mi.loaded(indRoleDTop))
	}
	return nil
}

// markPtrDirty marks p for rewriting by the next flush. fs.dirtyPtrs
// counts the blocks so marked: eachDirtyPtr's caller and releasePtrsFrom
// take back each one they clear or drop.
func (fs *FS) markPtrDirty(p *ptrBlock) {
	if !p.dirty {
		p.dirty = true
		fs.dirtyPtrs++
	}
}

// ensureMapSlot materializes (and dirties) the pointer blocks needed so
// that file block bn can later be placed without allocation. It is
// called on the write path, before the block is staged.
func (fs *FS) ensureMapSlot(mi *mInode, bn uint32) error {
	role, _, err := slotOf(bn)
	if err != nil || role == indRoleInode {
		return err
	}
	return fs.dirtyPtr(mi, role)
}

// setBlockAddr points file block bn at addr and returns the previous
// address. The needed structures must have been materialized by
// ensureMapSlot.
func (fs *FS) setBlockAddr(mi *mInode, bn uint32, addr int64) (old int64, err error) {
	role, idx, err := slotOf(bn)
	if err != nil {
		return 0, err
	}
	cells := mi.ino.Direct[:]
	if role != indRoleInode {
		p := mi.loaded(role)
		if p == nil {
			return 0, fmt.Errorf("%w: pointer block %d for bn %d not materialized", ErrCorrupt, role, bn)
		}
		cells = p.cells
	}
	old, cells[idx] = cells[idx], addr
	return old, nil
}

// eachDirtyPtr hands fn the role of every dirty pointer block of the file,
// marking it clean: level-2 blocks first (ascending), then the top block,
// then the single indirect block, so that a block's content depends only
// on blocks handed over before it.
func (mi *mInode) eachDirtyPtr(fn func(role uint32)) {
	take := func(role uint32) {
		if p := mi.loaded(role); p != nil && p.dirty {
			p.dirty = false
			fn(role)
		}
	}
	for role := indRoleL2Base; int(role) < len(mi.ptr); role++ {
		take(role)
	}
	take(indRoleDTop)
	take(indRoleSingle)
}

// encodePtr serializes the loaded pointer block with the given role into
// buf. It is looked up when called: a staged block that held the ptrBlock
// itself would keep its cells alive for as long as the staging queue's
// backing array remembers the entry, long after the file is gone.
func (mi *mInode) encodePtr(buf []byte, role uint32) error {
	return layout.EncodeIndirectBlock(buf, mi.ptr[role].cells)
}

// eachAddr calls fn for every non-nil cell of a pointer array whose first
// cell maps file block first.
func eachAddr(first uint32, cells []int64, fn func(bn uint32, addr int64) error) error {
	for j, a := range cells {
		if a != layout.NilAddr {
			if err := fn(first+uint32(j), a); err != nil {
				return err
			}
		}
	}
	return nil
}

// forEachBlockAddr calls fn for every allocated data block of the file
// with its block number and disk address. It does not visit indirect
// blocks themselves; see forEachIndirectAddr.
func (fs *FS) forEachBlockAddr(mi *mInode, fn func(bn uint32, addr int64) error) error {
	if err := eachAddr(0, mi.ino.Direct[:], fn); err != nil {
		return err
	}
	for role := indRoleSingle; role < numIndRoles; role++ {
		p, err := fs.loadPtr(mi, role, false)
		if err != nil {
			return err
		}
		if role == indRoleDTop {
			if p == nil {
				break // no top block, so no level-2 block either
			}
			continue // its cells are pointer blocks: the roles that follow
		}
		if p != nil {
			if err := eachAddr(firstBlockOf(role), p.cells, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// forEachIndirectAddr calls fn for every on-disk indirect block of the
// file (single indirect, double-indirect top, and level-2 blocks). It
// loads the top block only: the level-2 blocks are named, not read.
func (fs *FS) forEachIndirectAddr(mi *mInode, fn func(addr int64) error) error {
	each := func(_ uint32, addr int64) error { return fn(addr) }
	if err := eachAddr(0, []int64{mi.ino.Indirect, mi.ino.DIndir}, each); err != nil {
		return err
	}
	top, err := fs.loadPtr(mi, indRoleDTop, false)
	if top == nil {
		return err
	}
	return eachAddr(0, top.cells, each)
}

// releasePtrsFrom releases the pointer blocks that map only file blocks
// at or past keep, which the caller has already released: the on-disk
// block dies, its parent pointer becomes nil and the in-memory copy goes.
// Roles descend — level-2 blocks go before the top block that holds their
// parent cells — and so do the blocks they map: the first role that still
// maps a kept block ends the loop.
func (fs *FS) releasePtrsFrom(mi *mInode, keep uint32) error {
	top, err := fs.loadPtr(mi, indRoleDTop, false)
	if err != nil {
		return err
	}
	n := indRoleL2Base // without a top block there are no level-2 blocks
	if top != nil {
		n = numIndRoles
	}
	for ; n > 0 && firstBlockOf(n-1) >= keep; n-- {
		role := n - 1
		if cell := mi.parent(role); *cell != layout.NilAddr {
			if err := fs.decLive(*cell); err != nil {
				return err
			}
			*cell = layout.NilAddr
			if role >= indRoleL2Base {
				fs.markPtrDirty(top)
			}
		}
		if int(role) < len(mi.ptr) {
			if p := mi.ptr[role]; p != nil && p.dirty {
				fs.dirtyPtrs--
			}
			mi.ptr[role] = nil
		}
	}
	return nil
}
