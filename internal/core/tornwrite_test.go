package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// tearScript is a run whose last log write a crash tears: setup leaves a
// synced state behind, then tail writes and syncs more, and the target is
// the partial write tail issues that target picks from the log.write events.
type tearScript struct {
	setup  func(fs *FS) error
	tail   func(fs *FS) error
	target func(fs *FS, w *obs.LogWrite) bool
}

// run formats a disk, runs setup, arms the device to crash after crashAt
// more persisted blocks (none when crashAt < 0) and runs tail. It returns
// the disk and the events tail caused.
func (sc tearScript) run(t *testing.T, crashAt int64) (*FS, *disk.Disk, []obs.Event) {
	t.Helper()
	ring := obs.NewRingSink(1 << 14)
	opts := testOptions()
	opts.Tracer = obs.New(ring)
	fs, d := newTestFS(t, 2048, opts)
	if err := sc.setup(fs); err != nil {
		t.Fatal(err)
	}
	ring.Reset()
	if crashAt >= 0 {
		d.FailAfterWrites(crashAt)
	}
	_ = sc.tail(fs) // fails once the device crashes
	if ring.Dropped() != 0 {
		t.Fatalf("ring dropped %d events", ring.Dropped())
	}
	return fs, d, ring.Events()
}

// tearSweep tears the target write at every block of its request: k = 0 ..
// blocks-1 blocks land. Each time the mount must drop exactly that write and
// resume at its summary, keep everything setup synced, pass Check, and read
// no more than one block of the write beyond those roll-forward reads of any
// write (its summary, inode and directory-log blocks). When all its blocks
// land, the write is kept. It returns the target write and how many blocks
// land ahead of it.
func tearSweep(t *testing.T, sc tearScript, synced map[string][]byte, lastKind layout.BlockKind) (*obs.LogWrite, int64) {
	fs, d, events := sc.run(t, -1)
	var before int64 // blocks persisted ahead of the target
	var target *obs.LogWrite
	for _, e := range events {
		if e.Kind == obs.KindLogWrite && sc.target(fs, e.Log) {
			target = e.Log
			break
		}
		if e.Kind == obs.KindDiskIO && e.Disk.Op == "write" {
			before += int64(e.Disk.Blocks)
		}
	}
	if target == nil {
		t.Fatal("the script issued no write the case is about")
	}
	// The disk.io event of the target precedes its log.write event.
	before -= int64(target.Blocks)
	blk, err := d.Peek(target.Addr)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := layout.DecodeSummary(blk)
	if err != nil {
		t.Fatal(err)
	}
	if k := sum.Entries[len(sum.Entries)-1].Kind; k != lastKind {
		t.Fatalf("the target write ends in a %s block, want %s", k, lastKind)
	}

	for k := 0; k <= target.Blocks; k++ {
		t.Run(fmt.Sprintf("land=%d", k), func(t *testing.T) {
			_, d, _ := sc.run(t, before+int64(k))
			d.Reopen()
			ring := obs.NewRingSink(1 << 14)
			opts := testOptions()
			opts.Tracer = obs.New(ring)
			fs2, err := Mount(d, opts)
			if err != nil {
				t.Fatalf("mount: %v", err)
			}
			if fs2.Degraded() {
				t.Fatalf("degraded: %s", fs2.DegradedReason())
			}
			mustCheck(t, fs2)
			for name, want := range synced {
				if got, err := fs2.ReadFile(name); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("synced %s lost: %v", name, err)
				}
			}
			resumed, extra := int64(-1), 0
			for _, e := range ring.Events() {
				switch {
				case e.Kind == obs.KindLogWrite && resumed < 0:
					resumed = e.Log.Addr
				case e.Kind == obs.KindDiskIO && e.Disk.Op == "read":
					for a := e.Disk.Addr; a < e.Disk.Addr+int64(e.Disk.Blocks); a++ {
						if i := a - target.Addr - 1; i >= 0 && i < int64(len(sum.Entries)) && !rollForwardReads(sum.Entries[i].Kind) {
							extra++
						}
					}
				}
			}
			if extra > 1 {
				t.Errorf("the mount read %d blocks of the write that roll-forward does not read, want at most 1", extra)
			}
			if dropped := resumed == target.Addr; dropped != (k < target.Blocks) {
				t.Fatalf("%d of %d blocks landed: the log resumed at %d, the write's summary is at %d", k, target.Blocks, resumed, target.Addr)
			}
		})
	}
	return target, before
}

// TestTornFinalWriteEndingInInodes tears a sync's one partial write, whose
// last block is an inode block roll-forward reads anyway.
func TestTornFinalWriteEndingInInodes(t *testing.T) {
	synced := map[string][]byte{"/a": nonZero(1, 3*layout.BlockSize), "/b": nonZero(2, 100)}
	sc := tearScript{
		setup: func(fs *FS) error {
			for name, data := range synced {
				if err := fs.WriteFile(name, data); err != nil {
					return err
				}
			}
			return fs.Sync()
		},
		tail: func(fs *FS) error {
			for i := range 3 {
				if err := fs.WriteFile(fmt.Sprintf("/n%d", i), nonZero(10+i, 2*layout.BlockSize)); err != nil {
					return err
				}
			}
			return fs.Sync()
		},
		target: func(*FS, *obs.LogWrite) bool { return true },
	}
	tearSweep(t, sc, synced, layout.KindInode)
}

// TestTornFinalWriteAtSegmentEnd tears the partial write a flush cuts at
// the end of a segment, which ends in a data block: the one kind of final
// write the mount reads a block of to decide.
func TestTornFinalWriteAtSegmentEnd(t *testing.T) {
	synced := map[string][]byte{"/a": nonZero(1, 5*layout.BlockSize)}
	sc := tearScript{
		setup: func(fs *FS) error {
			if err := fs.WriteFile("/a", synced["/a"]); err != nil {
				return err
			}
			return fs.Sync()
		},
		tail: func(fs *FS) error {
			if err := fs.WriteFile("/big", nonZero(3, 60*layout.BlockSize)); err != nil {
				return err
			}
			return fs.Sync()
		},
		target: func(fs *FS, w *obs.LogWrite) bool {
			return w.Addr+int64(w.Blocks) == fs.segStart(w.Seg)+fs.segBlocks
		},
	}
	target, before := tearSweep(t, sc, synced, layout.KindData)

	// Whole on disk, but its last block unreadable: the mount cannot tell
	// whether the write is complete, and degrades rather than guess.
	t.Run("last-block-unreadable", func(t *testing.T) {
		_, d, _ := sc.run(t, before+int64(target.Blocks))
		d.Reopen()
		last := target.Addr + int64(target.Blocks) - 1
		if err := d.InjectFault(disk.Fault{Kind: disk.FaultReadError, Addr: last, Blocks: 1}); err != nil {
			t.Fatal(err)
		}
		fs2, err := Mount(d, testOptions())
		if err != nil {
			t.Fatalf("mount: %v", err)
		}
		if !fs2.Degraded() {
			t.Fatal("mount over an unreadable final block did not degrade")
		}
		if got, err := fs2.ReadFile("/a"); err != nil || !bytes.Equal(got, synced["/a"]) {
			t.Fatalf("synced /a unreadable on the degraded mount: %v", err)
		}
	})
}

// TestRefusedWriteLeavesNoSummary pins the void: a media write fault past
// a partial write's summary lets the summary land, and writeBatch overwrites
// it before relocating, so no walk of the retired segment finds a summary
// describing blocks that never landed. A crash between the refused write
// and the void leaves that summary behind as the log's final write, which
// the mount drops.
func TestRefusedWriteLeavesNoSummary(t *testing.T) {
	setup := func(t *testing.T) (*FS, *disk.Disk, int64) {
		fs, d := newTestFS(t, 2048, faultTestOptions())
		if err := fs.WriteFile("/a", nonZero(1, 2*layout.BlockSize)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		sumAddr := fs.segStart(fs.segs.head) + fs.segs.headOff
		end := fs.segStart(fs.segs.head) + fs.segBlocks
		if err := d.InjectFault(disk.Fault{Kind: disk.FaultWriteError, Addr: sumAddr + 2, Blocks: end - sumAddr - 2}); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("/r", nonZero(2, 4*layout.BlockSize)); err != nil {
			t.Fatal(err)
		}
		return fs, d, sumAddr
	}

	t.Run("relocated", func(t *testing.T) {
		fs, _, _ := setup(t)
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		if n := fs.Metrics().Counter(obs.CtrMediaWriteRelocations); n != 1 {
			t.Fatalf("%d relocations, want 1", n)
		}
		problems, err := fs.VerifyLog()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range problems {
			t.Errorf("VerifyLog: %s", p)
		}
	})

	t.Run("crash-before-void", func(t *testing.T) {
		fs, d, sumAddr := setup(t)
		// Each of the refused write's four attempts lands its first two
		// blocks; the void is the next write.
		d.FailAfterWrites(4 * 2)
		if err := fs.Sync(); err == nil {
			t.Fatal("sync survived the crash")
		}
		if blk, err := d.Peek(sumAddr); err != nil {
			t.Fatal(err)
		} else if _, err := layout.DecodeSummary(blk); err != nil {
			t.Fatalf("the refused write's summary is not on disk: %v", err)
		}
		d.Reopen()
		d.ClearFaults()
		ring := obs.NewRingSink(1 << 12)
		opts := testOptions()
		opts.Tracer = obs.New(ring)
		fs2, err := Mount(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		mustCheck(t, fs2)
		if _, err := fs2.Stat("/r"); err == nil {
			t.Fatal("the refused write's file survived")
		}
		if got, err := fs2.ReadFile("/a"); err != nil || !bytes.Equal(got, nonZero(1, 2*layout.BlockSize)) {
			t.Fatalf("synced /a lost: %v", err)
		}
		resumed := int64(-1)
		for _, e := range ring.Events() {
			if e.Kind == obs.KindLogWrite {
				resumed = e.Log.Addr
				break
			}
		}
		if resumed != sumAddr {
			t.Fatalf("the log resumed at %d, want the refused write's summary at %d", resumed, sumAddr)
		}
	})
}
