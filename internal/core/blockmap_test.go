package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/layout"
)

const ppb = layout.PointersPerBlock

// blockMapBoundaries is every file block number at which the block map
// changes shape, with the slot it must land in.
var blockMapBoundaries = []struct {
	bn   uint32
	role uint32
	idx  int
}{
	{0, indRoleInode, 0},
	{layout.NumDirect - 1, indRoleInode, layout.NumDirect - 1},
	{layout.NumDirect, 0, 0},
	{firstDIndirect - 1, 0, ppb - 1},
	{firstDIndirect, 2, 0},
	{firstDIndirect + ppb - 1, 2, ppb - 1},
	{firstDIndirect + ppb, 3, 0},
	{layout.MaxFileBlocks - 1, 2 + ppb - 1, ppb - 1},
}

// TestBlockMapSlots pins the block-map arithmetic at every boundary, with
// no device: where slotOf puts a block, which cell parent names for that
// pointer block, that firstBlockOf inverts slotOf, and that the on-disk
// walker (layout.WalkBlockMap) numbers blocks and roles the same way.
func TestBlockMapSlots(t *testing.T) {
	if _, _, err := slotOf(layout.MaxFileBlocks); !errors.Is(err, ErrFileTooBig) {
		t.Fatalf("slotOf(MaxFileBlocks): err %v, want ErrFileTooBig", err)
	}
	for _, c := range blockMapBoundaries {
		role, idx, err := slotOf(c.bn)
		if err != nil || role != c.role || idx != c.idx {
			t.Errorf("slotOf(%d) = (%d, %d, %v), want (%d, %d)", c.bn, role, idx, err, c.role, c.idx)
			continue
		}
		if role == indRoleInode {
			continue
		}
		if got := firstBlockOf(role) + uint32(idx); got != c.bn {
			t.Errorf("firstBlockOf(%d)+%d = %d, want %d", role, idx, got, c.bn)
		}

		mi := newMInode(*layout.NewInode(7, layout.FileTypeRegular))
		want := &mi.ino.Indirect
		if role >= indRoleL2Base {
			if mi.parent(role) != nil {
				t.Errorf("bn %d: parent(%d) without a loaded top block is not nil", c.bn, role)
			}
			top := &ptrBlock{cells: nilPointerBlock()}
			mi.ptr = []*ptrBlock{nil, top}
			want = &top.cells[role-indRoleL2Base]
			if mi.parent(indRoleDTop) != &mi.ino.DIndir {
				t.Errorf("parent(top) is not the inode's DIndir")
			}
		}
		if mi.parent(role) != want {
			t.Errorf("bn %d: parent(%d) names the wrong cell", c.bn, role)
		}

		// An on-disk map holding only this block: the walker must name the
		// pointer blocks on the way by the same roles and the block by bn.
		const dataAddr, ptrAddr, topAddr = 1000, 2000, 3000
		cells := nilPointerBlock()
		cells[idx] = dataAddr
		blocks := map[int64][]int64{ptrAddr: cells}
		wantVisits := fmt.Sprintf("indirect %d@%d data %d@%d ", role, ptrAddr, c.bn, dataAddr)
		if role >= indRoleL2Base {
			topCells := nilPointerBlock()
			topCells[role-indRoleL2Base] = ptrAddr
			blocks[topAddr] = topCells
			mi.ino.DIndir = topAddr
			wantVisits = fmt.Sprintf("indirect %d@%d ", indRoleDTop, topAddr) + wantVisits
		} else {
			mi.ino.Indirect = ptrAddr
		}
		var visits string
		err = layout.WalkBlockMap(&mi.ino,
			func(addr int64) ([]int64, error) { return blocks[addr], nil },
			func(kind layout.BlockKind, bn uint32, addr int64) error {
				visits += fmt.Sprintf("%s %d@%d ", kind, bn, addr)
				return nil
			})
		if err != nil || visits != wantVisits {
			t.Errorf("bn %d: walker visited %q (err %v), want %q", c.bn, visits, err, wantVisits)
		}
	}
}

// liveIndirectBlocks returns how many indirect blocks are live on disk.
func liveIndirectBlocks(t *testing.T, fs *FS) int {
	t.Helper()
	by, err := fs.LiveBytesByKind()
	if err != nil {
		t.Fatal(err)
	}
	return int(by[layout.KindIndirect] / layout.BlockSize)
}

// TestTruncateAtBlockMapBoundaries cuts a file one block before, at and
// one block after each boundary where the map gains a pointer block. The
// pointer blocks left on disk must be exactly those the surviving blocks
// need — the empty ones are released, none leaks — and regrowing past the
// cut, remounting, the model and Check's live-byte recount must all agree.
func TestTruncateAtBlockMapBoundaries(t *testing.T) {
	for _, b := range []uint32{layout.NumDirect, firstDIndirect, firstDIndirect + ppb} {
		for _, cut := range []uint32{b - 1, b, b + 1} {
			t.Run(fmt.Sprintf("boundary%d/cut%d", b, cut), func(t *testing.T) {
				fs, d := newTestFS(t, 8192, testOptions())
				model := NewModel()
				do := func(op Op) {
					t.Helper()
					if err := ApplyOp(fs, op); err != nil {
						t.Fatalf("%s: %v", op, err)
					}
					model.Apply(op)
				}
				block := func(bn uint32) Op {
					data := bytes.Repeat([]byte{byte(bn), byte(bn >> 8), 0xa5}, layout.BlockSize/3+1)[:layout.BlockSize]
					return Op{Kind: OpWrite, Path: "/f", Off: int64(bn) * layout.BlockSize, Data: data}
				}
				do(Op{Kind: OpCreate, Path: "/f"})
				// A sparse file: block 0 and the five blocks around the boundary.
				written := []uint32{0, b - 2, b - 1, b, b + 1, b + 2}
				for _, bn := range written {
					do(block(bn))
				}
				do(Op{Kind: OpSync})
				do(Op{Kind: OpTruncate, Path: "/f", Size: int64(cut) * layout.BlockSize})

				roles := map[uint32]bool{}
				for _, bn := range written {
					if role, _, _ := slotOf(bn); bn < cut && role != indRoleInode {
						roles[role] = true
						if role >= indRoleL2Base {
							roles[indRoleDTop] = true
						}
					}
				}
				if got := liveIndirectBlocks(t, fs); got != len(roles) {
					t.Fatalf("%d live indirect blocks after the cut, want %d (roles %v)", got, len(roles), roles)
				}
				mustCheck(t, fs)

				do(block(b + 1)) // regrow through the released pointer blocks
				if err := model.Verify(fs); err != nil {
					t.Fatal(err)
				}
				if err := fs.Unmount(); err != nil {
					t.Fatal(err)
				}
				fs, err := Mount(d, testOptions())
				if err != nil {
					t.Fatal(err)
				}
				if err := model.Verify(fs); err != nil {
					t.Fatalf("after remount: %v", err)
				}
				mustCheck(t, fs)
			})
		}
	}
}

// TestBlockMapLastBlock: the last addressable block can be written, read
// and cut off again together with its level-2 block (the top block, which
// the cut lies under, stays), and nothing can be put past it.
func TestBlockMapLastBlock(t *testing.T) {
	fs, d := newTestFS(t, 8192, testOptions())
	const last = layout.MaxFileBlocks - 1
	payload := bytes.Repeat([]byte("end"), 100)
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt("/f", int64(last)*layout.BlockSize, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt("/f", int64(last+1)*layout.BlockSize-1, payload); !errors.Is(err, ErrFileTooBig) {
		t.Fatalf("write across the end of the map: err %v, want ErrFileTooBig", err)
	}
	if err := fs.Truncate("/f", int64(last+1)*layout.BlockSize+1); !errors.Is(err, ErrFileTooBig) {
		t.Fatalf("truncate past the end of the map: err %v, want ErrFileTooBig", err)
	}
	if got := liveIndirectBlocks(t, fs); got != 2 {
		t.Fatalf("%d live indirect blocks, want 2 (top and the last level-2 block)", got)
	}
	got := make([]byte, len(payload))
	if _, err := fs.ReadAt("/f", int64(last)*layout.BlockSize, got); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("last block reads %q, %v", got, err)
	}
	const cut = layout.MaxFileBlocks - ppb // the first block under the last level-2 block
	if err := fs.Truncate("/f", int64(cut)*layout.BlockSize); err != nil {
		t.Fatal(err)
	}
	if got := liveIndirectBlocks(t, fs); got != 1 {
		t.Fatalf("%d live indirect blocks after cutting the last level-2 block off, want 1 (top)", got)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(d, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := fs.ReadAt("/f", int64(cut-1)*layout.BlockSize, got); err != nil || n != len(got) || !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatalf("hole before the cut reads %d bytes %q, %v", n, got, err)
	}
	mustCheck(t, fs)
}
