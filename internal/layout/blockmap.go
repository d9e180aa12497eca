package layout

// The role of an indirect block in its inode's block map, which is what
// SummaryEntry.BlockNo carries for KindIndirect: the cleaner and recovery
// find the pointer that should reference the block from it.
const (
	RoleSingle uint32 = 0 // the block Inode.Indirect points at
	RoleDTop   uint32 = 1 // the double-indirect top block (Inode.DIndir)
	RoleL2Base uint32 = 2 // + i: the level-2 block the top's i-th pointer points at
)

// WalkBlockMap calls visit for every block an on-disk inode's block map
// references, in map order: a data block as (KindData, file block number,
// address), an indirect block as (KindIndirect, role, address) ahead of
// the blocks it points at — the (Kind, BlockNo) pair of the summary entry
// the block was written under. ptrs returns the pointers of the indirect
// block at addr (see PtrsFrom); its first error, or visit's, ends the walk.
func WalkBlockMap(ino *Inode, ptrs func(addr int64) ([]int64, error), visit func(kind BlockKind, bn uint32, addr int64) error) error {
	data := func(first int, cells []int64) error {
		for j, a := range cells {
			if a != NilAddr {
				if err := visit(KindData, uint32(first+j), a); err != nil {
					return err
				}
			}
		}
		return nil
	}
	indirect := func(role uint32, addr int64, below func(cells []int64) error) error {
		if addr == NilAddr {
			return nil
		}
		if err := visit(KindIndirect, role, addr); err != nil {
			return err
		}
		cells, err := ptrs(addr)
		if err != nil {
			return err
		}
		return below(cells)
	}
	if err := data(0, ino.Direct[:]); err != nil {
		return err
	}
	err := indirect(RoleSingle, ino.Indirect, func(cells []int64) error {
		return data(NumDirect, cells)
	})
	if err != nil {
		return err
	}
	return indirect(RoleDTop, ino.DIndir, func(top []int64) error {
		for i, a := range top {
			err := indirect(RoleL2Base+uint32(i), a, func(cells []int64) error {
				return data(NumDirect+(1+i)*PointersPerBlock, cells)
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// PtrsFrom makes WalkBlockMap's pointer source out of a block reader.
func PtrsFrom(read func(addr int64) ([]byte, error)) func(addr int64) ([]int64, error) {
	return func(addr int64) ([]int64, error) {
		buf, err := read(addr)
		if err != nil {
			return nil, err
		}
		return DecodeIndirectBlock(buf), nil
	}
}
