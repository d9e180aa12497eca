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
