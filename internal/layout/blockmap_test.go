package layout

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// TestWalkBlockMap walks a map with blocks at every level, read through
// PtrsFrom from encoded indirect blocks: map order, each indirect block
// ahead of what it points at, file block numbers and roles as the summary
// entries carry them; and the first error from either callback ends it.
func TestWalkBlockMap(t *testing.T) {
	image := map[int64][]byte{}
	put := func(addr int64, cells map[int]int64) {
		ptrs := make([]int64, PointersPerBlock)
		for i := range ptrs {
			ptrs[i] = NilAddr
		}
		for i, a := range cells {
			ptrs[i] = a
		}
		blk := make([]byte, BlockSize)
		if err := EncodeIndirectBlock(blk, ptrs); err != nil {
			t.Fatal(err)
		}
		image[addr] = blk
	}
	ino := NewInode(9, FileTypeRegular)
	ino.Direct[3] = 103
	ino.Indirect = 200
	put(200, map[int]int64{0: 210, PointersPerBlock - 1: 211})
	ino.DIndir = 300
	put(300, map[int]int64{1: 310, PointersPerBlock - 1: 320})
	put(310, map[int]int64{5: 315})
	put(320, map[int]int64{PointersPerBlock - 1: 325})

	errGone := errors.New("gone")
	var lost int64 = -1
	read := func(addr int64) ([]byte, error) {
		if addr == lost {
			return nil, errGone
		}
		return image[addr], nil
	}
	walk := func(stopAt int64) ([]string, error) {
		var got []string
		err := WalkBlockMap(ino, PtrsFrom(read), func(kind BlockKind, bn uint32, addr int64) error {
			if addr == stopAt {
				return errGone
			}
			got = append(got, fmt.Sprintf("%s %d@%d", kind, bn, addr))
			return nil
		})
		return got, err
	}

	const dind = NumDirect + PointersPerBlock
	want := []string{
		"data 3@103",
		"indirect 0@200", fmt.Sprintf("data %d@210", NumDirect), fmt.Sprintf("data %d@211", dind-1),
		"indirect 1@300",
		"indirect 3@310", fmt.Sprintf("data %d@315", dind+PointersPerBlock+5),
		fmt.Sprintf("indirect %d@320", RoleL2Base+PointersPerBlock-1), fmt.Sprintf("data %d@325", MaxFileBlocks-1),
	}
	if got, err := walk(-1); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("walk: %v\n got %q\nwant %q", err, got, want)
	}
	// An unreadable level-2 block: it was named, nothing below it is.
	lost = 310
	if got, err := walk(-1); !errors.Is(err, errGone) || !reflect.DeepEqual(got, want[:6]) {
		t.Fatalf("walk with block 310 lost: %v\n got %q\nwant %q", err, got, want[:6])
	}
	lost = -1
	if got, err := walk(211); !errors.Is(err, errGone) || !reflect.DeepEqual(got, want[:3]) {
		t.Fatalf("walk stopped at 211: %v\n got %q\nwant %q", err, got, want[:3])
	}
}
