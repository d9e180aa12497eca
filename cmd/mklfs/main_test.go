package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/lfs"
)

// TestMklfsWritesMountableImage: the image mklfs writes loads, mounts and
// checks clean with the geometry the flags asked for.
func TestMklfsWritesMountableImage(t *testing.T) {
	img := filepath.Join(t.TempDir(), "disk.img")
	var out, errOut bytes.Buffer
	if st := run([]string{"-size", "16", "-segment", "128", "-inodes", "512", "-v", "-o", img}, &out, &errOut); st != 0 {
		t.Fatalf("exit %d: %s", st, errOut.String())
	}
	if !strings.Contains(out.String(), "segments of 128 KB, 512 inodes max") || !strings.Contains(out.String(), "segment area starts at block") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
	d, err := lfs.LoadDisk(img)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := lfs.Mount(d, lfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := fs.SegmentBytes(); got != 128<<10 {
		t.Fatalf("segment bytes %d, want %d", got, 128<<10)
	}
	rep, err := fs.Check()
	if err != nil || len(rep.Problems) > 0 {
		t.Fatalf("check: %v %v", err, rep)
	}
}

func TestMklfsRejectsBadArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	if st := run([]string{"-segment", "10"}, &out, &errOut); st != 1 || !strings.Contains(errOut.String(), "multiple of 4 KB") {
		t.Fatalf("bad segment size: exit %d, stderr %q", st, errOut.String())
	}
	if st := run([]string{"-nosuchflag"}, &out, &errOut); st != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", st)
	}
}
