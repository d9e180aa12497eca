package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/layout"
)

// forEachLiveBlock visits the live set in one order from call to call, and
// hands each inode block over with the lowest allocated inum it holds, so
// what Check and Scrub report comes out the same on every run.
func TestForEachLiveBlockOrderRepeats(t *testing.T) {
	fs, d := newTestFS(t, 2048, testOptions())
	// A sync per file leaves each file's inode behind in a block of its own
	// (the root's inode moves on to the next flush).
	for i := 0; i < 24; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/f%02d", i), make([]byte, 2*layout.BlockSize)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	fs = remount(t, fs, d)

	type visit struct {
		kind layout.BlockKind
		inum uint32
		i    int
		addr int64
	}
	enumerate := func() []visit {
		var out []visit
		err := fs.forEachLiveBlock(fs.liveFiles(nil, func(inum uint32, what string, err error) error {
			return fmt.Errorf("inum %d: %s: %w", inum, what, err)
		}), func(kind layout.BlockKind, inum uint32, i int, addr int64) {
			out = append(out, visit{kind, inum, i, addr})
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := enumerate()
	lowest := make(map[int64]uint32) // inode-block address -> lowest allocated inum in it
	for i, e := range fs.imap.entries {
		if _, ok := lowest[e.Addr]; e.Allocated() && !ok {
			lowest[e.Addr] = uint32(i)
		}
	}
	inoBlocks := 0
	for _, v := range first {
		if v.kind == layout.KindInode {
			inoBlocks++
			if v.inum != lowest[v.addr] {
				t.Errorf("inode block %d comes with inum %d, want its lowest %d", v.addr, v.inum, lowest[v.addr])
			}
		}
	}
	if inoBlocks < 3 || inoBlocks != len(lowest) {
		t.Fatalf("%d inode blocks visited, inode map names %d; want at least 3", inoBlocks, len(lowest))
	}
	for run := 0; run < 4; run++ {
		if again := enumerate(); !reflect.DeepEqual(again, first) {
			t.Fatalf("call %d visited %d blocks in another order than the first call's %d", run+2, len(again), len(first))
		}
	}
}
