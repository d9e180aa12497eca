package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/layout"
)

func TestNVRAMPreservesUnsyncedWrites(t *testing.T) {
	d := disk.MustNew(disk.DefaultGeometry(4096))
	nv := NewNVRAM(1 << 20)
	opts := testOptions()
	opts.NVRAM = nv
	fs, err := Format(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/buffered", []byte("never synced")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/dir/nested", []byte("also buffered")); err != nil {
		t.Fatal(err)
	}
	// No Sync, no Checkpoint: the data lives only in the volatile cache
	// and the NVRAM redo log.
	d.Crash()
	d.Reopen()

	// Without the NVRAM the data is gone.
	plain, err := Mount(d, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Stat("/buffered"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unsynced file present without NVRAM: %v", err)
	}

	// With it, everything is replayed.
	d.Crash()
	d.Reopen()
	fs2, err := Mount(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.ReadFile("/buffered")
	if err != nil || string(got) != "never synced" {
		t.Fatalf("buffered file: %q, %v", got, err)
	}
	got, err = fs2.ReadFile("/dir/nested")
	if err != nil || string(got) != "also buffered" {
		t.Fatalf("nested file: %q, %v", got, err)
	}
	if nv.Pending() != 0 {
		t.Fatalf("%d records left in NVRAM after replay", nv.Pending())
	}
	mustCheck(t, fs2)
}

func TestNVRAMClearedByFlush(t *testing.T) {
	d := disk.MustNew(disk.DefaultGeometry(4096))
	nv := NewNVRAM(1 << 20)
	opts := testOptions()
	opts.NVRAM = nv
	fs, err := Format(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if nv.Pending() == 0 {
		t.Fatal("operation not recorded in NVRAM")
	}
	// The checkpoint's flush, not Sync: an attached NVRAM absorbs a Sync.
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if nv.Pending() != 0 {
		t.Fatalf("NVRAM holds %d records after a flush made them durable", nv.Pending())
	}
}

// TestNVRAMIsTheCommitPoint: with an NVRAM attached and every other
// option at its default, Sync returns at the NVRAM record without a device
// write, the durability epochs say so, and the record alone brings the file
// back after a crash.
func TestNVRAMIsTheCommitPoint(t *testing.T) {
	d := disk.MustNew(disk.DefaultGeometry(4096))
	nv := NewNVRAM(1 << 20)
	opts := Options{NVRAM: nv}
	fs, err := Format(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := d.Stats().WriteOps
	if err := fs.WriteFile("/f", []byte("committed in NVRAM")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := d.Stats().WriteOps - before; n != 0 {
		t.Fatalf("WriteFile + Sync made %d device writes, want 0", n)
	}
	if staged, nvSeq, onDisk := fs.Durability(); nvSeq != staged || staged <= onDisk {
		t.Fatalf("Durability() = staged %d, nv %d, disk %d; want nv == staged > disk", staged, nvSeq, onDisk)
	}
	if got := fs.Stats().NVAbsorbedSyncs; got != 1 {
		t.Fatalf("NVAbsorbedSyncs = %d, want 1", got)
	}
	d.Crash()
	d.Reopen()
	fs2, err := Mount(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fs2.ReadFile("/f"); err != nil || string(got) != "committed in NVRAM" {
		t.Fatalf("after the crash: %q, %v", got, err)
	}
	mustCheck(t, fs2)
}

// TestNoRollForwardDiscardsNVRAM mounts a crashed image with NVRAM
// attached and roll-forward off. The NVRAM records describe operations
// after a log tail that mount discards, so they go with it: the mount
// succeeds on the checkpointed state and leaves the NVRAM empty.
func TestNoRollForwardDiscardsNVRAM(t *testing.T) {
	d := disk.MustNew(disk.DefaultGeometry(4096))
	nv := NewNVRAM(1 << 20)
	opts := testOptions()
	opts.NVRAM = nv
	fs, err := Format(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/kept", []byte("checkpointed")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/a", []byte("synced")); err != nil {
		t.Fatal(err)
	}
	// On the log, past the checkpoint: the NVRAM's WriteAt below names a
	// file only roll-forward would bring back.
	mustFlush(t, fs)
	if _, err := fs.WriteAt("/a", 0, []byte("buffered")); err != nil {
		t.Fatal(err)
	}
	if nv.Pending() == 0 {
		t.Fatal("WriteAt not recorded in NVRAM")
	}
	d.Crash()
	d.Reopen()

	opts.NoRollForward = true
	fs2, err := Mount(d, opts)
	if err != nil {
		t.Fatalf("NoRollForward mount with NVRAM: %v", err)
	}
	defer fs2.Unmount()
	mustCheck(t, fs2)
	if got, err := fs2.ReadFile("/kept"); err != nil || string(got) != "checkpointed" {
		t.Fatalf("checkpointed file: %q, %v", got, err)
	}
	if _, err := fs2.Stat("/a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("/a, written after the checkpoint, survived a NoRollForward mount: %v", err)
	}
	if n := nv.Pending(); n != 0 {
		t.Fatalf("%d records left in NVRAM after a NoRollForward mount", n)
	}
}

func TestNVRAMFillForcesFlush(t *testing.T) {
	d := disk.MustNew(disk.DefaultGeometry(4096))
	nv := NewNVRAM(64 << 10) // tiny: fills after a few block writes
	opts := testOptions()
	opts.NVRAM = nv
	fs, err := Format(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/f%02d", i), make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if used := nv.Used(); used >= 64<<10 {
		t.Fatalf("NVRAM over capacity: %d bytes", used)
	}
	mustCheck(t, fs)
}

func TestNVRAMReplaysDeletesAndRenames(t *testing.T) {
	d := disk.MustNew(disk.DefaultGeometry(4096))
	nv := NewNVRAM(1 << 20)
	opts := testOptions()
	opts.NVRAM = nv
	fs, err := Format(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/victim", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/mover", []byte("moving")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint, unsynced: delete one file, rename and link others,
	// truncate a third.
	if err := fs.Remove("/victim"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/mover", "/moved"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/trunc", bytes.Repeat([]byte("t"), 3*layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate("/trunc", 10); err != nil {
		t.Fatal(err)
	}
	if err := fs.Link("/moved", "/alias"); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	d.Reopen()
	fs2, err := Mount(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Stat("/victim"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted file resurrected: %v", err)
	}
	got, err := fs2.ReadFile("/moved")
	if err != nil || string(got) != "moving" {
		t.Fatalf("renamed: %q, %v", got, err)
	}
	info, err := fs2.Stat("/trunc")
	if err != nil || info.Size != 10 {
		t.Fatalf("truncated: %+v, %v", info, err)
	}
	alias, err := fs2.Stat("/alias")
	if err != nil || alias.Nlink != 2 {
		t.Fatalf("link: %+v, %v", alias, err)
	}
	mustCheck(t, fs2)
}

// Property: with NVRAM attached, a crash at any point after any workload
// loses nothing at all — the model matches exactly even without Sync.
func TestNVRAMModelEquivalenceAfterCrash(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		script := Script{Seed: seed, N: 50}
		d := disk.MustNew(disk.DefaultGeometry(8192))
		nv := NewNVRAM(16 << 20)
		opts := testOptions()
		opts.NVRAM = nv
		fs, err := Format(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		model := applyScript(t, fs, script)
		// No sync. Power cut.
		d.Crash()
		d.Reopen()
		fs2, err := Mount(d, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mustVerify(t, model, fs2)
		mustCheck(t, fs2)
	}
}
