package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/layout"
	"repro/lfs"
)

func testShell(t *testing.T) (*lfs.Disk, *lfs.FS, string) {
	t.Helper()
	img := filepath.Join(t.TempDir(), "sh.img")
	d := lfs.NewDisk(4096)
	fs, err := lfs.Format(d, lfs.Options{SegmentBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	return d, fs, img
}

// run pipes one command line through the shell's dispatcher.
func run(t *testing.T, d *lfs.Disk, fsp **lfs.FS, rng *rand.Rand, line ...string) bool {
	t.Helper()
	return runCmd("/tmp/never-written.img", d, fsp, rng, line)
}

func TestShellFileLifecycle(t *testing.T) {
	d, fs, _ := testShell(t)
	rng := rand.New(rand.NewSource(1))
	for _, line := range [][]string{
		{"mkdir", "/dir"},
		{"put", "/dir/file", "hello", "shell"},
		{"gen", "/dir/blob", "64"},
		{"ls", "/dir"},
		{"cat", "/dir/file"},
		{"stat", "/dir/file"},
		{"mv", "/dir/file", "/dir/renamed"},
		{"ln", "/dir/renamed", "/alias"},
		{"df"},
		{"segs"},
		{"sync"},
		{"checkpoint"},
		{"clean"},
		{"idle", "2"},
		{"rm", "/alias"},
		{"fsck"},
		{"help"},
	} {
		if quit := run(t, d, &fs, rng, line...); quit {
			t.Fatalf("command %v quit the shell", line)
		}
	}
	got, err := fs.ReadFile("/dir/renamed")
	if err != nil || string(got) != "hello shell" {
		t.Fatalf("state after shell session: %q, %v", got, err)
	}
}

func TestShellCrashCommand(t *testing.T) {
	d, fs, _ := testShell(t)
	rng := rand.New(rand.NewSource(1))
	run(t, d, &fs, rng, "put", "/persist", "before", "crash")
	run(t, d, &fs, rng, "sync")
	old := fs
	if quit := run(t, d, &fs, rng, "crash"); quit {
		t.Fatal("crash quit")
	}
	if fs == old {
		t.Fatal("crash did not swap in the recovered file system")
	}
	got, err := fs.ReadFile("/persist")
	if err != nil || string(got) != "before crash" {
		t.Fatalf("post-crash: %q, %v", got, err)
	}
}

func TestShellBadCommands(t *testing.T) {
	d, fs, _ := testShell(t)
	rng := rand.New(rand.NewSource(1))
	// None of these may quit or panic.
	for _, line := range [][]string{
		{"bogus"},
		{"cat"},
		{"cat", "/missing"},
		{"gen", "/x", "notanumber"},
		{"rm"},
		{"mv", "/only-one"},
		{"idle", "nan"},
		{"put", "/noargs"},
	} {
		if quit := run(t, d, &fs, rng, line...); quit {
			t.Fatalf("bad command %v quit the shell", line)
		}
	}
}

func TestShellStatsAndTrace(t *testing.T) {
	img := filepath.Join(t.TempDir(), "tr.img")
	d := lfs.NewDisk(4096)
	fs, err := lfs.Format(d, lfs.Options{SegmentBlocks: 64, Tracer: lfs.NewTracer(nil)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	out := filepath.Join(t.TempDir(), "trace.jsonl")
	for _, line := range [][]string{
		{"trace", out},
		{"put", "/traced", "event", "stream"},
		{"sync"},
		{"trace", "off"},
		{"crash"},
		{"stats"},
	} {
		if quit := runCmd(img, d, &fs, rng, line); quit {
			t.Fatalf("command %v quit the shell", line)
		}
	}
	// stats prints the metrics snapshot; after the crash's roll-forward it
	// must say why the log walks stopped.
	report := fs.Metrics().String()
	if !strings.Contains(report, "log.walk.end.decode") {
		t.Fatalf("stats after a crash shows no log.walk.end.decode counter:\n%s", report)
	}
	// ... and what each phase of that recovery asked of the disk.
	for _, phase := range []string{"cpload", "rollforward", "dirops", "usage", "commit"} {
		if !strings.Contains(report, "fs.recovery."+phase+".reads") {
			t.Fatalf("stats after a crash shows no fs.recovery.%s.reads counter:\n%s", phase, report)
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("trace file is empty")
	}
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var e map[string]any
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("trace line %d is not JSON: %v", i+1, err)
		}
		if e["kind"] == "" {
			t.Fatalf("trace line %d has no kind", i+1)
		}
	}
	if got := fs.Metrics().Counter("log.writes"); got == 0 {
		t.Fatal("metrics recorded no log writes")
	}
}

// TestShellSegsLine pins the life-cycle line `segs` prints under the
// histogram, and checks the snapshot behind it accounts for every segment.
// TestShellRecoveryTable: after a crash, `recovery` prints the phases of
// that mount alone — the tracer has counted an earlier crash too — with
// their shares, a total that is the sum of the rows, and why the log walk
// ended.
func TestShellRecoveryTable(t *testing.T) {
	d := lfs.NewDisk(4096)
	fs, err := lfs.Format(d, lfs.Options{SegmentBlocks: 64, Tracer: lfs.NewTracer(nil)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if got := recoveryTable(fs.Metrics(), lfs.MetricsSnapshot{}); !strings.HasPrefix(got, "no recovery has run") {
		t.Fatalf("recovery table of a freshly formatted file system:\n%s", got)
	}
	for _, line := range [][]string{
		{"put", "/one", "first", "life"}, {"sync"}, {"crash"},
		{"checkpoint"}, {"mkdir", "/d"}, {"gen", "/d/two", "40"}, {"sync"}, {"crash"},
		{"recovery"},
	} {
		if quit := run(t, d, &fs, rng, line...); quit {
			t.Fatalf("command %v quit the shell", line)
		}
	}
	now := fs.Metrics()
	table := recoveryTable(now, beforeRecovery)
	lines := strings.Split(strings.TrimSpace(table), "\n")
	if len(lines) != 8 || !strings.HasPrefix(lines[0], "fs.recovery") || !strings.HasPrefix(lines[7], "log walks ended: ") || !strings.Contains(lines[7], "decode") {
		t.Fatalf("recovery table:\n%s", table)
	}
	var reads, sum int64
	for i, phase := range []string{"cpload", "rollforward", "dirops", "usage", "commit", "total"} {
		f := strings.Fields(lines[1+i])
		if len(f) != 5 || f[0] != phase {
			t.Fatalf("row %d is %q, want the %s phase:\n%s", i, lines[1+i], phase, table)
		}
		n, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if phase == "total" {
			reads = n
		} else {
			sum += n
		}
	}
	last := now.Counter("disk.read.ops") - beforeRecovery.Counter("disk.read.ops")
	if reads != sum || reads != last || reads >= now.Counter("disk.read.ops") {
		t.Fatalf("total %d requests, rows add up to %d, the last mount read %d times, both mounts %d:\n%s",
			reads, sum, last, now.Counter("disk.read.ops"), table)
	}
}

func TestShellSegsLine(t *testing.T) {
	got := segsLine(lfs.SegCounts{Head: 12, Next: 13, Free: 41, Pending: 3, Dirty: 197, Quarantined: 1})
	if want := "head 12 · next 13 · 41 free · 3 pending · 197 dirty · 1 quarantined"; got != want {
		t.Fatalf("segs line %q, want %q", got, want)
	}
	if got := segsLine(lfs.SegCounts{Head: 3, Next: -1}); !strings.HasPrefix(got, "head 3 · next - · 0 free") {
		t.Fatalf("segs line with no next segment: %q", got)
	}
	slack := slackLine(0.75, 255, lfs.SegCounts{Free: 24, Pending: 2, Dirty: 227},
		lfs.Options{CleanLowWater: 10, CleanHighWater: 24},
		map[layout.BlockKind]int64{layout.KindData: 96 << 20, layout.KindInode: 3 << 19, layout.KindImap: 1 << 19})
	if want := "utilisation 75.0% of the disk, 83.9% of the 228 segments holding data · 24 clean + 2 pending (cleaning starts below 10, stops at 24)" +
		" · live MB: data 96.0 indirect 0.0 inode 1.5 imap 0.5 segusage 0.0 dirlog 0.0"; slack != want {
		t.Fatalf("slack line %q, want %q", slack, want)
	}
	d := lfs.NewDisk(4096)
	fs, err := lfs.Format(d, lfs.Options{SegmentBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	c := fs.SegmentCounts()
	if c.Head != 0 || c.Next != 1 || c.Pending != 0 || c.Quarantined != 0 || c.Free != fs.CleanSegments() ||
		2+c.Free+c.Dirty != int(fs.NumSegments()) {
		t.Fatalf("fresh file system of %d segments counts %+v", fs.NumSegments(), c)
	}
}

func TestShellQuitSavesImage(t *testing.T) {
	img := filepath.Join(t.TempDir(), "save.img")
	d := lfs.NewDisk(4096)
	fs, err := lfs.Format(d, lfs.Options{SegmentBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	runCmd(img, d, &fs, rng, []string{"put", "/kept", "saved"})
	if quit := runCmd(img, d, &fs, rng, []string{"quit"}); !quit {
		t.Fatal("quit did not quit")
	}
	if _, err := os.Stat(img); err != nil {
		t.Fatalf("image not saved: %v", err)
	}
	d2, err := lfs.LoadDisk(img)
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := lfs.Mount(d2, lfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.ReadFile("/kept")
	if err != nil || string(got) != "saved" {
		t.Fatalf("saved image content: %q, %v", got, err)
	}
}

// TestFsckSubcommand drives `lfsh fsck` end to end: a clean image passes
// (exit 0), a missing image and a corrupted one fail (exit 1), and bad
// usage is distinguished (exit 2). Data corruption is invisible to the
// structural sweep but caught by -deep's checksum scan.
func TestFsckSubcommand(t *testing.T) {
	img := filepath.Join(t.TempDir(), "fsck.img")
	d := lfs.NewDisk(4096)
	fs, err := lfs.Format(d, lfs.Options{SegmentBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	pattern := bytes.Repeat([]byte{0xAB}, 64<<10)
	if err := fs.WriteFile("/dir/blob", pattern); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	if err := d.Save(img); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if code := runFsck([]string{img}, &out); code != 0 {
		t.Fatalf("clean image: exit %d, output %q", code, out.String())
	}
	if !strings.Contains(out.String(), "clean") {
		t.Fatalf("clean image output: %q", out.String())
	}
	out.Reset()
	if code := runFsck([]string{"-deep", img}, &out); code != 0 {
		t.Fatalf("clean image -deep: exit %d, output %q", code, out.String())
	}
	out.Reset()
	if code := runFsck([]string{filepath.Join(t.TempDir(), "missing.img")}, &out); code != 1 {
		t.Fatalf("missing image: exit %d", code)
	}
	out.Reset()
	if code := runFsck(nil, &out); code != 2 {
		t.Fatalf("no arguments: exit %d", code)
	}

	// Corrupt one of the blob's data blocks in place. The structural
	// sweep never reads file data, so plain fsck stays clean; -deep's
	// partial-write checksum scan must flag it.
	d2, err := lfs.LoadDisk(img)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for addr := int64(1); addr < 4096; addr++ {
		b, err := d2.Peek(addr)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > 0 && b[0] == 0xAB && b[len(b)-1] == 0xAB {
			garbage := bytes.Repeat([]byte{0x5A}, len(b))
			if err := d2.Poke(addr, garbage); err != nil {
				t.Fatal(err)
			}
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no data block of the 0xAB blob found to corrupt")
	}
	img2 := filepath.Join(t.TempDir(), "fsck-corrupt.img")
	if err := d2.Save(img2); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := runFsck([]string{img2}, &out); code != 0 {
		t.Fatalf("data corruption tripped the structural sweep: %q", out.String())
	}
	out.Reset()
	if code := runFsck([]string{"-deep", img2}, &out); code != 1 {
		t.Fatalf("-deep missed the corruption: exit %d, output %q", code, out.String())
	}
	if !strings.Contains(out.String(), "checksum") {
		t.Fatalf("-deep output: %q", out.String())
	}
}

// TestFsckRepairSubcommand destroys both checkpoint regions — normal
// recovery has nothing left to start from — and verifies that plain
// fsck refuses with a hint, -repair salvages and writes the repaired
// image back, and the result is a clean, mountable image with its
// contents intact.
func TestFsckRepairSubcommand(t *testing.T) {
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
	for w := 0; w < 2; w++ {
		for b := int64(0); b < int64(sb.CheckpointBlocks); b++ {
			if err := d.Poke(sb.CheckpointAddr[w]+b, zero); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Save(img); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if code := runFsck([]string{img}, &out); code != 1 {
		t.Fatalf("unmountable image without -repair: exit %d, output %q", code, out.String())
	}
	if !strings.Contains(out.String(), "-repair") {
		t.Fatalf("refusal should hint at -repair: %q", out.String())
	}
	out.Reset()
	if code := runFsck([]string{"-repair", img}, &out); code != 0 {
		t.Fatalf("-repair: exit %d, output %q", code, out.String())
	}
	if !strings.Contains(out.String(), "salvaged:") {
		t.Fatalf("-repair output should report the salvage: %q", out.String())
	}
	out.Reset()
	if code := runFsck([]string{"-deep", img}, &out); code != 0 {
		t.Fatalf("repaired image should check clean: exit %d, output %q", code, out.String())
	}
	d2, err := lfs.LoadDisk(img)
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := lfs.Mount(d2, lfs.Options{})
	if err != nil {
		t.Fatalf("repaired image should mount normally: %v", err)
	}
	defer fs2.Unmount()
	if fs2.Degraded() {
		t.Fatalf("repaired image mounted degraded: %s", fs2.DegradedReason())
	}
	got, err := fs2.ReadFile("/dir/a.txt")
	if err != nil || string(got) != "salvage me" {
		t.Fatalf("/dir/a.txt after repair: %q, %v", got, err)
	}
	if got, err := fs2.ReadFile("/top.txt"); err != nil || len(got) != 9000 {
		t.Fatalf("/top.txt after repair: %d bytes, %v", len(got), err)
	}
}
