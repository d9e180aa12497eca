package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/layout"
	"repro/lfs"
)

// buildImage saves a small populated file system, the way mklfs plus a
// session of use would leave one.
func buildImage(t *testing.T) string {
	t.Helper()
	img := filepath.Join(t.TempDir(), "disk.img")
	d := lfs.NewDisk(4096)
	fs, err := lfs.Format(d, lfs.Options{SegmentBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/d/f", bytes.Repeat([]byte("lfs"), 30000)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	if err := d.Save(img); err != nil {
		t.Fatal(err)
	}
	return img
}

func lfsck(args ...string) (status int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	status = run(args, &out, &errOut)
	return status, out.String(), errOut.String()
}

func TestLfsckCleanImage(t *testing.T) {
	img := buildImage(t)
	for _, args := range [][]string{{img}, {"-deep", "-v", img}, {"-noroll", img}} {
		st, out, errOut := lfsck(args...)
		if st != 0 || !strings.Contains(out, "clean") {
			t.Fatalf("lfsck %v: exit %d\nstdout: %s\nstderr: %s", args, st, out, errOut)
		}
	}
	if st, _, errOut := lfsck(); st != 2 || !strings.Contains(errOut, "usage:") {
		t.Fatalf("no image: exit %d, stderr %q", st, errOut)
	}
	if st, _, _ := lfsck(filepath.Join(t.TempDir(), "missing.img")); st != 1 {
		t.Fatalf("missing image: exit %d, want 1", st)
	}
}

// TestLfsckDeepFindsDataCorruption corrupts one data block in place: the
// structural sweep never reads file data, so the plain run stays clean,
// and -deep's partial-write checksum scan must fail it and say why.
func TestLfsckDeepFindsDataCorruption(t *testing.T) {
	img := buildImage(t)
	d, err := lfs.LoadDisk(img)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for addr := int64(1); addr < 4096 && !corrupted; addr++ {
		b, err := d.Peek(addr)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.HasPrefix(b, []byte("lfslfslfs")) {
			if err := d.Poke(addr, bytes.Repeat([]byte{0x5A}, len(b))); err != nil {
				t.Fatal(err)
			}
			corrupted = true
		}
	}
	if !corrupted {
		t.Fatal("no data block of /d/f found to corrupt")
	}
	if err := d.Save(img); err != nil {
		t.Fatal(err)
	}
	if st, out, errOut := lfsck(img); st != 0 {
		t.Fatalf("data corruption tripped the structural sweep: exit %d\nstdout: %s\nstderr: %s", st, out, errOut)
	}
	if st, out, errOut := lfsck("-deep", img); st != 1 || !strings.Contains(out, "checksum") {
		t.Fatalf("-deep on a corrupt data block: exit %d\nstdout: %s\nstderr: %s", st, out, errOut)
	}
}

// TestLfsckSalvagesLostCheckpoints: with both checkpoint regions zeroed
// the plain run fails and points at -salvage; -salvage repairs the image
// in place, after which the plain run is clean and the file is intact.
func TestLfsckSalvagesLostCheckpoints(t *testing.T) {
	img := buildImage(t)
	d, err := lfs.LoadDisk(img)
	if err != nil {
		t.Fatal(err)
	}
	sbBuf, err := d.Peek(0)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := layout.DecodeSuperblock(sbBuf)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, layout.BlockSize)
	for _, base := range sb.CheckpointAddr {
		for i := int64(0); i < int64(sb.CheckpointBlocks); i++ {
			if err := d.Poke(base+i, zero); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Save(img); err != nil {
		t.Fatal(err)
	}
	if st, _, errOut := lfsck(img); st != 1 || !strings.Contains(errOut, "-salvage") {
		t.Fatalf("broken image: exit %d, stderr %q", st, errOut)
	}
	if st, out, errOut := lfsck("-salvage", img); st != 0 || !strings.Contains(out, "inodes recovered") {
		t.Fatalf("salvage: exit %d\nstdout: %s\nstderr: %s", st, out, errOut)
	}
	if st, out, errOut := lfsck("-deep", img); st != 0 {
		t.Fatalf("after salvage: exit %d\nstdout: %s\nstderr: %s", st, out, errOut)
	}
	d, err = lfs.LoadDisk(img)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := lfs.Mount(d, lfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/d/f")
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte("lfs"), 30000)) {
		t.Fatalf("file after salvage: %d bytes, err %v", len(got), err)
	}
}

// TestLfsckSalvageKeepsTree zeroes both checkpoint regions of an image
// holding a file in a subdirectory and one at the root: -salvage must
// rebuild both paths, and the repaired image must mount normally, not
// degraded.
func TestLfsckSalvageKeepsTree(t *testing.T) {
	img := filepath.Join(t.TempDir(), "repair.img")
	d := lfs.NewDisk(4096)
	fs, err := lfs.Format(d, lfs.Options{SegmentBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/dir/a.txt", []byte("salvage me")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/top.txt", bytes.Repeat([]byte{0x77}, 9000)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	sbBuf, err := d.Peek(0)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := layout.DecodeSuperblock(sbBuf)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, layout.BlockSize)
	for _, base := range sb.CheckpointAddr {
		for i := int64(0); i < int64(sb.CheckpointBlocks); i++ {
			if err := d.Poke(base+i, zero); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Save(img); err != nil {
		t.Fatal(err)
	}
	if st, out, errOut := lfsck("-salvage", img); st != 0 {
		t.Fatalf("salvage: exit %d\nstdout: %s\nstderr: %s", st, out, errOut)
	}
	d2, err := lfs.LoadDisk(img)
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := lfs.Mount(d2, lfs.Options{})
	if err != nil {
		t.Fatalf("salvaged image should mount normally: %v", err)
	}
	defer fs2.Unmount()
	if fs2.Degraded() {
		t.Fatalf("salvaged image mounted degraded: %s", fs2.DegradedReason())
	}
	if got, err := fs2.ReadFile("/dir/a.txt"); err != nil || string(got) != "salvage me" {
		t.Fatalf("/dir/a.txt after salvage: %q, %v", got, err)
	}
	if got, err := fs2.ReadFile("/top.txt"); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0x77}, 9000)) {
		t.Fatalf("/top.txt after salvage: %d bytes, %v", len(got), err)
	}
}
