package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/layout"
)

// testOptions returns options sized for small test disks.
func testOptions() Options {
	return Options{
		SegmentBlocks:  32, // 128 KB segments
		MaxInodes:      2048,
		CleanLowWater:  4,
		CleanHighWater: 8,
		CleanBatch:     4,
	}
}

// newTestFS formats a fresh file system on an in-memory device with
// nblocks 4 KB blocks.
func newTestFS(t *testing.T, nblocks int64, opts Options) (*FS, *disk.Disk) {
	t.Helper()
	d := disk.MustNew(disk.DefaultGeometry(nblocks))
	fs, err := Format(d, opts)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return fs, d
}

// mustCheck fails the test if the consistency sweep reports problems.
func mustCheck(t *testing.T, fs *FS) {
	t.Helper()
	rep, err := fs.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	for _, p := range rep.Problems {
		t.Errorf("consistency: %s", p)
	}
	if t.Failed() {
		t.FailNow()
	}
}

// mustFlush writes every staged operation to the log, as Sync does on a
// file system without an NVRAM; with one attached, Sync returns at the
// NVRAM record and writes nothing.
func mustFlush(tb testing.TB, fs *FS) {
	tb.Helper()
	fs.mu.Lock()
	err := fs.flushLog()
	fs.mu.Unlock()
	if err != nil {
		tb.Fatalf("flush: %v", err)
	}
}

func TestFormatAndStatRoot(t *testing.T) {
	fs, _ := newTestFS(t, 2048, testOptions())
	info, err := fs.Stat("/")
	if err != nil {
		t.Fatal(err)
	}
	if !info.IsDir || info.Inum != RootInum {
		t.Fatalf("root stat = %+v", info)
	}
	entries, err := fs.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("fresh root has %d entries", len(entries))
	}
	mustCheck(t, fs)
}

func TestCreateWriteRead(t *testing.T) {
	fs, _ := newTestFS(t, 2048, testOptions())
	if err := fs.Create("/hello.txt"); err != nil {
		t.Fatal(err)
	}
	data := []byte("hello, log-structured world")
	if _, err := fs.WriteAt("/hello.txt", 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q, want %q", got, data)
	}
	info, err := fs.Stat("/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != int64(len(data)) || info.IsDir {
		t.Fatalf("stat = %+v", info)
	}
	mustCheck(t, fs)
}

func TestCreateErrors(t *testing.T) {
	fs, _ := newTestFS(t, 2048, testOptions())
	if err := fs.Create("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/a"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create err = %v", err)
	}
	if err := fs.Create("/nodir/b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("create in missing dir err = %v", err)
	}
	if err := fs.Create("/"); !errors.Is(err, ErrBadPath) {
		t.Fatalf("create root err = %v", err)
	}
	if err := fs.Create("/a/../b"); !errors.Is(err, ErrBadPath) {
		t.Fatalf("dotdot err = %v", err)
	}
}

func TestMkdirAndNesting(t *testing.T) {
	fs, _ := newTestFS(t, 2048, testOptions())
	if err := fs.Mkdir("/dir1"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/dir1/sub"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/dir1/sub/deep.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt("/dir1/sub/deep.txt", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat("/dir1/sub")
	if err != nil {
		t.Fatal(err)
	}
	if !info.IsDir {
		t.Fatal("sub not a dir")
	}
	if _, err := fs.ReadFile("/dir1/sub"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("read dir err = %v", err)
	}
	if _, err := fs.WriteAt("/dir1", 0, []byte("x")); !errors.Is(err, ErrIsDir) {
		t.Fatalf("write dir err = %v", err)
	}
	mustCheck(t, fs)
}

func TestWriteFileAndOverwrite(t *testing.T) {
	fs, _ := newTestFS(t, 2048, testOptions())
	if err := fs.WriteFile("/f", []byte("first version")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/f", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2" {
		t.Fatalf("got %q", got)
	}
	mustCheck(t, fs)
}

func TestMultiBlockFile(t *testing.T) {
	fs, _ := newTestFS(t, 4096, testOptions())
	data := make([]byte, 13*layout.BlockSize+123) // spans into indirect range
	for i := range data {
		data[i] = byte(i * 31)
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
		t.Fatal("multi-block content mismatch")
	}
	mustCheck(t, fs)
}

func TestSparseFile(t *testing.T) {
	fs, _ := newTestFS(t, 4096, testOptions())
	if err := fs.Create("/sparse"); err != nil {
		t.Fatal(err)
	}
	// Write one block far into the indirect range, leaving holes.
	off := int64(100 * layout.BlockSize)
	if _, err := fs.WriteAt("/sparse", off, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, err := fs.ReadAt("/sparse", 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 || !bytes.Equal(buf, make([]byte, 8)) {
		t.Fatalf("hole read = %q (%d bytes)", buf, n)
	}
	n, err = fs.ReadAt("/sparse", off, buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:4]) != "tail" {
		t.Fatalf("tail read = %q (%d)", buf[:n], n)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, fs)
}

func TestRemove(t *testing.T) {
	fs, _ := newTestFS(t, 2048, testOptions())
	if err := fs.WriteFile("/f", bytes.Repeat([]byte("z"), 3*layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stat removed err = %v", err)
	}
	if err := fs.Remove("/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove err = %v", err)
	}
	mustCheck(t, fs)
}

func TestRemoveDirectorySemantics(t *testing.T) {
	fs, _ := newTestFS(t, 2048, testOptions())
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("remove non-empty dir err = %v", err)
	}
	if err := fs.Remove("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/d"); err != nil {
		t.Fatalf("remove empty dir: %v", err)
	}
	mustCheck(t, fs)
}

func TestTruncate(t *testing.T) {
	fs, _ := newTestFS(t, 4096, testOptions())
	data := bytes.Repeat([]byte("abcd"), 3*layout.BlockSize/4+100)
	if err := fs.WriteFile("/t", data); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate("/t", 100); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/t")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:100]) {
		t.Fatal("truncated content mismatch")
	}
	// Extending after truncation reads zeros, not stale bytes.
	if err := fs.Truncate("/t", 200); err != nil {
		t.Fatal(err)
	}
	got, err = fs.ReadFile("/t")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[100:], make([]byte, 100)) {
		t.Fatalf("stale bytes after re-extension: %q", got[100:120])
	}
	// Truncation keeps the file's incarnation uid stable (deviation from
	// Sprite LFS, which bumped it; see DESIGN.md) — only deletion bumps.
	before, _ := fs.Stat("/t")
	if err := fs.Truncate("/t", 0); err != nil {
		t.Fatal(err)
	}
	after, _ := fs.Stat("/t")
	if after.Version != before.Version {
		t.Fatalf("version %d after truncate-to-zero, want %d", after.Version, before.Version)
	}
	if err := fs.Remove("/t"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/t"); err != nil {
		t.Fatal(err)
	}
	reborn, _ := fs.Stat("/t")
	if reborn.Version != before.Version+1 {
		t.Fatalf("version %d after delete+recreate, want %d", reborn.Version, before.Version+1)
	}
	mustCheck(t, fs)
}

func TestRename(t *testing.T) {
	fs, _ := newTestFS(t, 2048, testOptions())
	if err := fs.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/a/f", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/a/f", "/b/g"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/a/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("old path err = %v", err)
	}
	got, err := fs.ReadFile("/b/g")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("got %q", got)
	}
	// Rename over an existing file replaces it.
	if err := fs.WriteFile("/b/h", []byte("victim")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/b/g", "/b/h"); err != nil {
		t.Fatal(err)
	}
	got, err = fs.ReadFile("/b/h")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("after replace got %q", got)
	}
	mustCheck(t, fs)
}

func TestLink(t *testing.T) {
	fs, _ := newTestFS(t, 2048, testOptions())
	if err := fs.WriteFile("/orig", []byte("shared")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Link("/orig", "/alias"); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat("/alias")
	if err != nil {
		t.Fatal(err)
	}
	if info.Nlink != 2 {
		t.Fatalf("nlink = %d, want 2", info.Nlink)
	}
	if err := fs.Remove("/orig"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/alias")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "shared" {
		t.Fatalf("got %q", got)
	}
	info, _ = fs.Stat("/alias")
	if info.Nlink != 1 {
		t.Fatalf("nlink after remove = %d", info.Nlink)
	}
	mustCheck(t, fs)
}

func TestUnmountThenMount(t *testing.T) {
	fs, d := newTestFS(t, 4096, testOptions())
	if err := fs.Mkdir("/docs"); err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("persist"), 1000)
	if err := fs.WriteFile("/docs/note", content); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/late"); !errors.Is(err, ErrUnmounted) {
		t.Fatalf("op after unmount err = %v", err)
	}

	fs2, err := Mount(d, testOptions())
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	got, err := fs2.ReadFile("/docs/note")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content lost across remount")
	}
	mustCheck(t, fs2)
}

func TestManySmallFilesWithCleaning(t *testing.T) {
	fs, _ := newTestFS(t, 2048, testOptions())
	// Write and overwrite enough data to force cleaning on an ~8 MB disk.
	payload := bytes.Repeat([]byte("w"), layout.BlockSize)
	for round := 0; round < 16; round++ {
		for i := 0; i < 150; i++ {
			name := fmt.Sprintf("/f%03d", i)
			if err := fs.WriteFile(name, payload); err != nil {
				t.Fatalf("round %d file %d: %v", round, i, err)
			}
		}
	}
	st := fs.Stats()
	if st.SegmentsCleaned == 0 {
		t.Fatal("cleaner never ran; test not exercising cleaning")
	}
	// All files still intact after cleaning.
	for i := 0; i < 150; i++ {
		got, err := fs.ReadFile(fmt.Sprintf("/f%03d", i))
		if err != nil {
			t.Fatalf("file %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("file %d corrupted after cleaning", i)
		}
	}
	mustCheck(t, fs)
}

func TestCheckpointAlternation(t *testing.T) {
	fs, d := newTestFS(t, 2048, testOptions())
	sb := fs.Superblock()
	for i := 0; i < 3; i++ {
		if err := fs.WriteFile("/f", []byte(fmt.Sprintf("gen %d", i))); err != nil {
			t.Fatal(err)
		}
		if err := fs.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	// Both fixed regions must now hold valid checkpoints with different
	// sequence numbers.
	var seqs []uint64
	for i := 0; i < 2; i++ {
		buf := make([]byte, int(sb.CheckpointBlocks)*layout.BlockSize)
		if err := d.Read(sb.CheckpointAddr[i], buf); err != nil {
			t.Fatal(err)
		}
		cp, err := layout.DecodeCheckpoint(buf)
		if err != nil {
			t.Fatalf("region %d: %v", i, err)
		}
		seqs = append(seqs, cp.Seq)
	}
	if seqs[0] == seqs[1] {
		t.Fatalf("checkpoint regions have equal seq %d: not alternating", seqs[0])
	}
}

func TestReadAtPastEOF(t *testing.T) {
	fs, _ := newTestFS(t, 2048, testOptions())
	if err := fs.WriteFile("/f", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := fs.ReadAt("/f", 100, buf)
	if err != nil || n != 0 {
		t.Fatalf("read past EOF = (%d, %v)", n, err)
	}
	n, err = fs.ReadAt("/f", 3, buf)
	if err != nil || n != 2 || string(buf[:n]) != "45" {
		t.Fatalf("partial read = (%d, %v, %q)", n, err, buf[:n])
	}
}

func TestNoSpace(t *testing.T) {
	opts := testOptions()
	opts.CleanLowWater = 2
	opts.CleanHighWater = 3
	fs, _ := newTestFS(t, 1024, opts) // ~4 MB disk, 128 KB segments
	payload := bytes.Repeat([]byte("x"), layout.BlockSize)
	var err error
	for i := 0; i < 2000; i++ {
		if err = fs.WriteFile(fmt.Sprintf("/f%04d", i), payload); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("filling the disk ended with %v, want ErrNoSpace", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	fs, _ := newTestFS(t, 4096, testOptions())
	if err := fs.WriteFile("/f", bytes.Repeat([]byte("d"), 8*layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.NewDataBytes == 0 || st.SummaryBytes == 0 {
		t.Fatalf("stats not accumulating: %+v", st)
	}
	if st.LogBytesByKind[layout.KindData] < 8*layout.BlockSize {
		t.Fatalf("data bytes %d", st.LogBytesByKind[layout.KindData])
	}
	if st.LogBytesByKind[layout.KindInode] == 0 || st.LogBytesByKind[layout.KindImap] == 0 ||
		st.LogBytesByKind[layout.KindSegUsage] == 0 || st.LogBytesByKind[layout.KindDirLog] == 0 {
		t.Fatalf("metadata kinds missing from log: %+v", st.LogBytesByKind)
	}
	if wc := st.WriteCost(); wc < 1.0 || wc > 3.0 {
		t.Fatalf("write cost %v out of sane range", wc)
	}
}

func TestDeepDirectoryTree(t *testing.T) {
	fs, _ := newTestFS(t, 4096, testOptions())
	path := ""
	for i := 0; i < 12; i++ {
		path = fmt.Sprintf("%s/d%d", path, i)
		if err := fs.Mkdir(path); err != nil {
			t.Fatal(err)
		}
	}
	leaf := path + "/leaf"
	if err := fs.WriteFile(leaf, []byte("deep")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile(leaf)
	if err != nil || string(got) != "deep" {
		t.Fatalf("deep read = %q, %v", got, err)
	}
	mustCheck(t, fs)
}

func TestLargeDirectory(t *testing.T) {
	fs, _ := newTestFS(t, 8192, testOptions())
	for i := 0; i < 400; i++ {
		if err := fs.Create(fmt.Sprintf("/file-with-a-long-name-%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := fs.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 400 {
		t.Fatalf("dir has %d entries, want 400", len(entries))
	}
	mustCheck(t, fs)
}
