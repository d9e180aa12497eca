package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// faultTestOptions is testOptions plus a metrics-only tracer, so tests
// can assert on the media counters.
func faultTestOptions() Options {
	o := testOptions()
	o.Tracer = obs.New(nil)
	return o
}

// dataBlockAddr returns the disk address of block bn of the file at path.
func dataBlockAddr(t *testing.T, fs *FS, path string, bn uint32) (uint32, int64) {
	t.Helper()
	inum, err := fs.resolve(path)
	if err != nil {
		t.Fatalf("resolve %s: %v", path, err)
	}
	mi, err := fs.loadInode(inum)
	if err != nil {
		t.Fatalf("loadInode: %v", err)
	}
	addr, err := fs.blockAddr(mi, bn)
	if err != nil {
		t.Fatalf("blockAddr: %v", err)
	}
	return inum, addr
}

// remount unmounts fs and mounts the same disk again cold.
func remount(t *testing.T, fs *FS, d *disk.Disk) *FS {
	t.Helper()
	if err := fs.Unmount(); err != nil {
		t.Fatalf("unmount: %v", err)
	}
	fs2, err := Mount(d, faultTestOptions())
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	return fs2
}

func TestReadCorruptDataBlock(t *testing.T) {
	fs, d := newTestFS(t, 2048, testOptions())
	content := bytes.Repeat([]byte("rot13!!?"), 3*layout.BlockSize/8)
	if err := fs.WriteFile("/victim", content); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/bystander", []byte("fine")); err != nil {
		t.Fatal(err)
	}
	fs = remount(t, fs, d) // cold caches: reads must go to the device

	inum, addr := dataBlockAddr(t, fs, "/victim", 1)
	if err := d.InjectFault(disk.Fault{Kind: disk.FaultCorrupt, Addr: addr, Seed: 99}); err != nil {
		t.Fatal(err)
	}

	_, err := fs.ReadFile("/victim")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadFile err = %v, want ErrCorrupt", err)
	}
	var ce *ErrCorrupted
	if !errors.As(err, &ce) {
		t.Fatalf("err %v does not unwrap to *ErrCorrupted", err)
	}
	if ce.Ino != inum || ce.Addr != addr || ce.Offset != int64(layout.BlockSize) {
		t.Fatalf("ErrCorrupted = {Ino:%d Offset:%d Addr:%d}, want {Ino:%d Offset:%d Addr:%d}",
			ce.Ino, ce.Offset, ce.Addr, inum, int64(layout.BlockSize), addr)
	}

	// The damaged segment is quarantined, but one bad data block must not
	// degrade the whole file system.
	seg := fs.segOf(addr)
	if qs := fs.QuarantinedSegments(); len(qs) != 1 || qs[0] != seg {
		t.Fatalf("QuarantinedSegments = %v, want [%d]", qs, seg)
	}
	if fs.Degraded() {
		t.Fatalf("degraded after a data-block corruption: %s", fs.DegradedReason())
	}

	// Unaffected files stay readable, and writes still work.
	got, err := fs.ReadFile("/bystander")
	if err != nil || string(got) != "fine" {
		t.Fatalf("bystander read = %q, %v", got, err)
	}
	if err := fs.WriteFile("/new", []byte("still writable")); err != nil {
		t.Fatalf("write after corruption: %v", err)
	}
	if fs.Metrics().Counter(obs.CtrCorruptBlocks) == 0 {
		t.Fatal("CtrCorruptBlocks not incremented")
	}
}

func TestTransientMediaErrorRetried(t *testing.T) {
	fs, d := newTestFS(t, 2048, testOptions())
	content := bytes.Repeat([]byte{7}, layout.BlockSize)
	if err := fs.WriteFile("/t", content); err != nil {
		t.Fatal(err)
	}
	fs = remount(t, fs, d)

	_, addr := dataBlockAddr(t, fs, "/t", 0)
	// Clears after 2 failed attempts; MediaRetries defaults to 3, so the
	// read recovers without the caller noticing.
	if err := d.InjectFault(disk.Fault{Kind: disk.FaultReadError, Addr: addr, Transient: 2}); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/t")
	if err != nil {
		t.Fatalf("read with transient fault: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("recovered read returned wrong bytes")
	}
	if n := fs.Metrics().Counter(obs.CtrMediaRetries); n < 2 {
		t.Fatalf("CtrMediaRetries = %d, want >= 2", n)
	}
	if fs.Metrics().Counter(obs.CtrMediaErrors) != 0 {
		t.Fatal("a recovered transient fault must not count as a media error")
	}
}

func TestPermanentMediaErrorTyped(t *testing.T) {
	fs, d := newTestFS(t, 2048, testOptions())
	if err := fs.WriteFile("/p", bytes.Repeat([]byte{9}, layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	fs = remount(t, fs, d)

	_, addr := dataBlockAddr(t, fs, "/p", 0)
	if err := d.InjectFault(disk.Fault{Kind: disk.FaultReadError, Addr: addr}); err != nil {
		t.Fatal(err)
	}
	_, err := fs.ReadFile("/p")
	if !errors.Is(err, ErrMediaRead) {
		t.Fatalf("read of bad sector err = %v, want ErrMediaRead", err)
	}
	if fs.Metrics().Counter(obs.CtrMediaErrors) == 0 {
		t.Fatal("CtrMediaErrors not incremented")
	}
}

func TestQuarantinePersistsAcrossRemount(t *testing.T) {
	fs, d := newTestFS(t, 2048, testOptions())
	if err := fs.WriteFile("/q", bytes.Repeat([]byte{3}, 2*layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	fs = remount(t, fs, d)

	_, addr := dataBlockAddr(t, fs, "/q", 0)
	if err := d.InjectFault(disk.Fault{Kind: disk.FaultCorrupt, Addr: addr, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/q"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read err = %v, want ErrCorrupt", err)
	}
	seg := fs.segOf(addr)
	if qs := fs.QuarantinedSegments(); len(qs) != 1 || qs[0] != seg {
		t.Fatalf("QuarantinedSegments = %v, want [%d]", qs, seg)
	}

	// The quarantine rides the checkpoint region across a clean remount.
	fs = remount(t, fs, d)
	if qs := fs.QuarantinedSegments(); len(qs) != 1 || qs[0] != seg {
		t.Fatalf("after remount QuarantinedSegments = %v, want [%d]", qs, seg)
	}
	// The quarantined segment is withdrawn from allocation even after
	// recovery rebuilt the free list.
	if fs.segs.is(seg, segFree) {
		t.Fatalf("quarantined segment %d is on the free list", seg)
	}
	mustCheck(t, fs)
}

// metaBlockAddr reads the newest checkpoint region off an unmounted disk
// and returns the address of one referenced metadata block: an inode-map
// block when imap is true, a segment-usage block otherwise.
func metaBlockAddr(t *testing.T, d *disk.Disk, imap bool) int64 {
	t.Helper()
	sbBuf, err := d.ReadBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := layout.DecodeSuperblock(sbBuf)
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := readBestCheckpoint(d, sb, 0)
	if err != nil {
		t.Fatal(err)
	}
	addrs := cp.UsageAddrs
	if imap {
		addrs = cp.ImapAddrs
	}
	for _, a := range addrs {
		if a != layout.NilAddr {
			return a
		}
	}
	t.Fatal("no metadata block on disk")
	return layout.NilAddr
}

func TestCorruptUsageBlockDegradesMount(t *testing.T) {
	fs, d := newTestFS(t, 2048, testOptions())
	if err := fs.WriteFile("/keep", []byte("survivor")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	usageAddr := metaBlockAddr(t, d, false)

	if err := d.InjectFault(disk.Fault{Kind: disk.FaultCorrupt, Addr: usageAddr, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(d, faultTestOptions())
	if err != nil {
		t.Fatalf("degraded mount must still return a readable FS, got error %v", err)
	}
	if !fs.Degraded() {
		t.Fatal("mount over a corrupt usage block did not degrade")
	}
	if fs.DegradedReason() == "" {
		t.Fatal("degraded with no reason recorded")
	}

	// Every mutating operation fails fast and typed.
	if err := fs.WriteFile("/nope", []byte("x")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("WriteFile on degraded fs err = %v, want ErrDegraded", err)
	}
	if err := fs.Mkdir("/d"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Mkdir on degraded fs err = %v, want ErrDegraded", err)
	}
	if err := fs.Remove("/keep"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Remove on degraded fs err = %v, want ErrDegraded", err)
	}

	// The usage table is cleaner bookkeeping, not read-path metadata:
	// intact data remains readable through the degraded mount.
	got, err := fs.ReadFile("/keep")
	if err != nil || string(got) != "survivor" {
		t.Fatalf("read on degraded fs = %q, %v", got, err)
	}
	// Unmount must not checkpoint over broken metadata, but it must not
	// fail either.
	if err := fs.Unmount(); err != nil {
		t.Fatalf("unmount of degraded fs: %v", err)
	}
}

func TestCorruptImapBlockDegradesMount(t *testing.T) {
	fs, d := newTestFS(t, 2048, testOptions())
	if err := fs.WriteFile("/keep", []byte("survivor")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	imapAddr := metaBlockAddr(t, d, true)

	if err := d.InjectFault(disk.Fault{Kind: disk.FaultCorrupt, Addr: imapAddr, Seed: 13}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(d, faultTestOptions())
	if err != nil {
		t.Fatalf("degraded mount must still return an FS, got error %v", err)
	}
	if !fs.Degraded() {
		t.Fatal("mount over a corrupt imap block did not degrade")
	}
	// The file's inode-map entry was in the destroyed block, so the file
	// is unreachable — but the failure must be typed, never a panic or a
	// raw decode error.
	if _, err := fs.ReadFile("/keep"); !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read of lost file err = %v, want ErrNotFound or ErrCorrupt", err)
	}
	if err := fs.WriteFile("/nope", []byte("x")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("WriteFile on degraded fs err = %v, want ErrDegraded", err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatalf("unmount of degraded fs: %v", err)
	}
}

func TestScrubFindsInjectedCorruption(t *testing.T) {
	fs, d := newTestFS(t, 2048, testOptions())
	if err := fs.WriteFile("/a", bytes.Repeat([]byte{1}, 2*layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/b", bytes.Repeat([]byte{2}, layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	fs = remount(t, fs, d)

	// A clean scrub: every live block verifies, nothing reported.
	rep, err := fs.Scrub()
	if err != nil {
		t.Fatalf("clean scrub: %v", err)
	}
	if len(rep.Errors) != 0 || rep.Degraded || len(rep.Quarantined) != 0 {
		t.Fatalf("clean scrub reported trouble: %+v", rep)
	}
	if rep.Blocks == 0 {
		t.Fatal("scrub visited no blocks")
	}

	inum, addr := dataBlockAddr(t, fs, "/a", 1)
	if err := d.InjectFault(disk.Fault{Kind: disk.FaultCorrupt, Addr: addr, Seed: 21}); err != nil {
		t.Fatal(err)
	}
	rep, err = fs.Scrub()
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if len(rep.Errors) != 1 {
		t.Fatalf("scrub found %d errors, want 1: %+v", len(rep.Errors), rep.Errors)
	}
	se := rep.Errors[0]
	if se.Addr != addr || se.Ino != inum || se.Offset != int64(layout.BlockSize) || se.Kind != "data" {
		t.Fatalf("ScrubError = %+v, want {Addr:%d Ino:%d Offset:%d Kind:data}", se, addr, inum, int64(layout.BlockSize))
	}
	if !errors.Is(se.Err, ErrCorrupt) {
		t.Fatalf("ScrubError.Err = %v, want ErrCorrupt", se.Err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != fs.segOf(addr) {
		t.Fatalf("scrub quarantined %v, want [%d]", rep.Quarantined, fs.segOf(addr))
	}
	if fs.Metrics().Counter(obs.CtrScrubErrors) == 0 {
		t.Fatal("CtrScrubErrors not incremented")
	}
}

func TestCleanerSkipsQuarantinedSegment(t *testing.T) {
	fs, d := newTestFS(t, 2048, testOptions())
	if err := fs.WriteFile("/c", bytes.Repeat([]byte{8}, 2*layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	fs = remount(t, fs, d)

	_, addr := dataBlockAddr(t, fs, "/c", 0)
	if err := d.InjectFault(disk.Fault{Kind: disk.FaultCorrupt, Addr: addr, Seed: 31}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/c"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read err = %v, want ErrCorrupt", err)
	}
	seg := fs.segOf(addr)

	// An explicit cleaning pass must leave the quarantined segment alone:
	// afterwards it is still quarantined and still off the free list.
	if err := fs.Clean(); err != nil {
		t.Fatalf("clean: %v", err)
	}
	if !fs.segs.isQuarantined(seg) {
		t.Fatal("cleaner lifted the quarantine")
	}
	if fs.segs.is(seg, segFree) {
		t.Fatalf("cleaner freed quarantined segment %d", seg)
	}
}
