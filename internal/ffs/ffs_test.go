package ffs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/disk"
)

func testOptions() Options {
	return Options{
		BlockSize:      8192,
		GroupBlocks:    256, // 2 MB groups for small test disks
		InodesPerGroup: 256,
	}
}

func newTestFS(t *testing.T, nblocks int64) *FS {
	t.Helper()
	d := disk.MustNew(disk.DefaultGeometry(nblocks))
	fs, err := Format(d, testOptions())
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return fs
}

func mustFsck(t *testing.T, fs *FS) {
	t.Helper()
	rep, err := fs.Fsck()
	if err != nil {
		t.Fatalf("Fsck: %v", err)
	}
	for _, p := range rep.Problems {
		t.Errorf("fsck: %s", p)
	}
	if t.Failed() {
		t.FailNow()
	}
}

func TestCreateWriteRead(t *testing.T) {
	fs := newTestFS(t, 4096)
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	data := []byte("fast file system baseline")
	if _, err := fs.WriteAt("/f", 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	mustFsck(t, fs)
}

func TestCreateErrors(t *testing.T) {
	fs := newTestFS(t, 4096)
	if err := fs.Create("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/a"); !errors.Is(err, ErrExists) {
		t.Fatalf("dup create: %v", err)
	}
	if err := fs.Create("/no/b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing dir: %v", err)
	}
	if err := fs.Create("/x/../y"); !errors.Is(err, ErrBadPath) {
		t.Fatalf("dotdot: %v", err)
	}
}

func TestDirectoriesAndNesting(t *testing.T) {
	fs := newTestFS(t, 4096)
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/d/e"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/d/e/f", []byte("deep")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/d/e/f")
	if err != nil || string(got) != "deep" {
		t.Fatalf("%q, %v", got, err)
	}
	entries, err := fs.ReadDir("/d")
	if err != nil || len(entries) != 1 || entries[0].Name != "e" {
		t.Fatalf("readdir: %v, %v", entries, err)
	}
	mustFsck(t, fs)
}

func TestMultiBlockAndIndirect(t *testing.T) {
	fs := newTestFS(t, 8192)
	data := make([]byte, 14*8192+100) // beyond the 10 direct blocks
	for i := range data {
		data[i] = byte(i * 13)
	}
	if err := fs.WriteFile("/big", data); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content mismatch")
	}
	mustFsck(t, fs)
}

func TestRemoveFreesSpace(t *testing.T) {
	fs := newTestFS(t, 4096)
	free0 := fs.totalFreeBlocks()
	if err := fs.WriteFile("/f", make([]byte, 4*8192)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if fs.totalFreeBlocks() >= free0 {
		t.Fatal("no blocks consumed")
	}
	if err := fs.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	// Root dir may have consumed a block; file blocks must be back.
	if got := fs.totalFreeBlocks(); got < free0-1 {
		t.Fatalf("free blocks %d, want ~%d", got, free0)
	}
	mustFsck(t, fs)
}

func TestRenameAndLink(t *testing.T) {
	fs := newTestFS(t, 4096)
	if err := fs.WriteFile("/a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/a", "/d/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("old name: %v", err)
	}
	if err := fs.Link("/d/b", "/c"); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat("/c")
	if err != nil || info.Nlink != 2 {
		t.Fatalf("link: %+v, %v", info, err)
	}
	if err := fs.Remove("/d/b"); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.ReadFile("/c"); err != nil || string(got) != "x" {
		t.Fatalf("%q, %v", got, err)
	}
	mustFsck(t, fs)
}

func TestTruncate(t *testing.T) {
	fs := newTestFS(t, 4096)
	data := bytes.Repeat([]byte("q"), 3*8192)
	if err := fs.WriteFile("/t", data); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate("/t", 100); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/t")
	if err != nil || len(got) != 100 {
		t.Fatalf("%d bytes, %v", len(got), err)
	}
	if err := fs.Truncate("/t", 300); err != nil {
		t.Fatal(err)
	}
	got, _ = fs.ReadFile("/t")
	if !bytes.Equal(got[100:], make([]byte, 200)) {
		t.Fatal("stale bytes after extension")
	}
	mustFsck(t, fs)
}

func TestSyncMetadataWritesCounted(t *testing.T) {
	fs := newTestFS(t, 4096)
	pre := fs.Stats()
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	// Create = inode + dir data + dir inode = 3 synchronous metadata
	// writes; the inode's second copy goes out at write-back.
	if got := st.SyncWrites - pre.SyncWrites; got != 3 {
		t.Fatalf("create issued %d sync writes, want 3", got)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateCostsFiveWritesWithData(t *testing.T) {
	// Figure 1: creating a one-block file costs five writes in FFS (two
	// inode copies, the data block, the directory data, the directory
	// inode).
	fs := newTestFS(t, 4096)
	d := fs.dev
	pre := d.Stats()
	if err := fs.WriteFile("/file1", bytes.Repeat([]byte("z"), 1024)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	ops := d.Stats().Sub(pre).WriteOps
	// 5 writes plus the async bitmap write-back at sync.
	if ops < 5 || ops > 7 {
		t.Fatalf("small-file create issued %d write requests, want 5-7", ops)
	}
}

func TestNoSpace(t *testing.T) {
	fs := newTestFS(t, 2048) // 8 MB disk, 2 MB groups
	var err error
	for i := 0; i < 2000; i++ {
		if err = fs.WriteFile(fmt.Sprintf("/f%04d", i), make([]byte, 8192)); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
}

func TestFilePlacementInParentGroup(t *testing.T) {
	fs := newTestFS(t, 8192)
	if err := fs.Mkdir("/d1"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/d1/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	di, _ := fs.Stat("/d1")
	fi, _ := fs.Stat("/d1/f")
	if fs.groupOfInum(di.Inum) != fs.groupOfInum(fi.Inum) {
		t.Fatalf("file in group %d, parent dir in group %d", fs.groupOfInum(fi.Inum), fs.groupOfInum(di.Inum))
	}
}

func TestDirectorySpreadAcrossGroups(t *testing.T) {
	fs := newTestFS(t, 16384) // 64 MB: many groups
	groups := map[int]bool{}
	for i := 0; i < 6; i++ {
		p := fmt.Sprintf("/dir%d", i)
		if err := fs.Mkdir(p); err != nil {
			t.Fatal(err)
		}
		info, _ := fs.Stat(p)
		groups[fs.groupOfInum(info.Inum)] = true
	}
	if len(groups) < 2 {
		t.Fatalf("directories clustered in %d group(s)", len(groups))
	}
}

func TestSequentialAllocationIsContiguous(t *testing.T) {
	fs := newTestFS(t, 8192)
	if err := fs.WriteFile("/seq", make([]byte, 6*8192)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	ino := fs.inodes[func() uint32 { i, _ := fs.Stat("/seq"); return i.Inum }()]
	for bn := uint32(1); bn < 6; bn++ {
		if fs.blockAddr(ino, bn) != fs.blockAddr(ino, bn-1)+1 {
			t.Fatalf("block %d not contiguous: %d after %d", bn, fs.blockAddr(ino, bn), fs.blockAddr(ino, bn-1))
		}
	}
}

func TestFsckReadsScaleWithDiskNotActivity(t *testing.T) {
	// The paper's point: fsck cost is proportional to disk size, not to
	// recent activity. An idle FS still pays the full metadata scan.
	fs := newTestFS(t, 16384)
	d := fs.dev
	pre := d.Stats()
	if _, err := fs.Fsck(); err != nil {
		t.Fatal(err)
	}
	idleReads := d.Stats().Sub(pre).BlocksRead
	// Every group has 1 bitmap + inode table blocks; with 31 groups the
	// scan is hundreds of blocks even with no files.
	if idleReads < int64(fs.ngroups) {
		t.Fatalf("fsck read only %d blocks on %d groups", idleReads, fs.ngroups)
	}
}

func TestUnmount(t *testing.T) {
	fs := newTestFS(t, 2048)
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/x"); !errors.Is(err, ErrUnmounted) {
		t.Fatalf("post-unmount create: %v", err)
	}
}

// Property: write/read round trips for random offsets and sizes.
func TestQuickWriteReadRoundTrip(t *testing.T) {
	fs := newTestFS(t, 8192)
	if err := fs.Create("/q"); err != nil {
		t.Fatal(err)
	}
	shadow := make([]byte, 0)
	f := func(off16 uint16, size16 uint16, fill byte) bool {
		off := int64(off16) % (20 * 8192)
		size := int(size16)%(3*8192) + 1
		data := bytes.Repeat([]byte{fill}, size)
		if _, err := fs.WriteAt("/q", off, data); err != nil {
			return false
		}
		need := int(off) + size
		if need > len(shadow) {
			grown := make([]byte, need)
			copy(grown, shadow)
			shadow = grown
		}
		copy(shadow[off:], data)
		got, err := fs.ReadFile("/q")
		if err != nil {
			return false
		}
		return bytes.Equal(got, shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	mustFsck(t, fs)
}

// TestSyncIsDeterministic runs one script twice and requires identical
// device statistics: write-back visits dirty inodes in inum order, so the
// baseline's seeks, and with them its simulated time, repeat from run to run.
func TestSyncIsDeterministic(t *testing.T) {
	run := func() disk.Stats {
		fs := newTestFS(t, 8192)
		for d := range 4 {
			dir := fmt.Sprintf("/d%d", d)
			if err := fs.Mkdir(dir); err != nil {
				t.Fatal(err)
			}
			for f := range 16 {
				data := bytes.Repeat([]byte{byte(d*16 + f)}, (f%3+1)*fs.opts.BlockSize)
				if err := fs.WriteFile(fmt.Sprintf("%s/f%d", dir, f), data); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		return fs.dev.Stats()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("two runs of one script: %+v, then %+v", a, b)
	}
}
