package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/disk"
	"repro/internal/layout"
)

// cachedOptions is testOptions with a read cache large enough that the
// tests below never evict: whatever leaves the cache left it by drop.
func cachedOptions() Options {
	o := testOptions()
	o.ReadCacheBlocks = 1024
	return o
}

// liveDataAddrs returns the address of every data block of every loaded
// file, directories included.
func liveDataAddrs(t *testing.T, fs *FS) map[int64]bool {
	t.Helper()
	live := make(map[int64]bool)
	fs.icache.each(func(_ uint32, mi *mInode) {
		err := fs.forEachBlockAddr(mi, func(_ uint32, addr int64) error {
			live[addr] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	return live
}

// checkCacheLive fails unless every cached address holds a live data
// block whose current contents are exactly what the cache serves.
func checkCacheLive(t *testing.T, fs *FS, d *disk.Disk) {
	t.Helper()
	live := liveDataAddrs(t, fs)
	cached := fs.rc.order(t)
	if len(cached) > len(live) {
		t.Fatalf("%d blocks cached, only %d live data blocks", len(cached), len(live))
	}
	for _, addr := range cached {
		if !live[addr] {
			t.Fatalf("superseded address %d is still cached", addr)
		}
		blk, _ := fs.rc.get(addr)
		onDisk, err := d.Peek(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blk, onDisk) {
			t.Fatalf("cache serves different bytes than the disk holds at %d", addr)
		}
	}
}

// TestWrittenBlocksStayCached pins write fill: a block the log writer has
// just put on the disk is in the read cache at its final address, so the
// first read after the Sync issues no device request.
func TestWrittenBlocksStayCached(t *testing.T) {
	fs, d := newTestFS(t, 2048, cachedOptions())
	content := bytes.Repeat([]byte("written!"), 3*layout.BlockSize/8)
	if err := fs.WriteFile("/w", content); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	before := d.Stats().ReadOps
	got, err := fs.ReadFile("/w")
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("read back: %v", err)
	}
	if n := d.Stats().ReadOps - before; n != 0 {
		t.Fatalf("read after write+Sync issued %d device reads, want 0", n)
	}
	checkCacheLive(t, fs, d)
}

// TestSupersededBlocksLeaveCache churns overwrites, truncates and removes
// (enough to run the cleaner) and checks after every step that the cache
// holds live blocks only: never more entries than live data blocks, and
// no address whose block was overwritten, cut off, deleted or moved.
func TestSupersededBlocksLeaveCache(t *testing.T) {
	fs, d := newTestFS(t, 2048, cachedOptions())
	for i := 0; i < 40; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/f%02d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	for r := 1; r <= 40; r++ {
		for i := 0; i < 40; i++ {
			path := fmt.Sprintf("/f%02d", i)
			switch (r + i) % 5 {
			case 0:
				if err := fs.Truncate(path, int64(layout.BlockSize/2)); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := fs.Remove(path); err != nil {
					t.Fatal(err)
				}
			default:
				payload := bytes.Repeat([]byte{byte(r), byte(i)}, (1+i%3)*layout.BlockSize/2)
				if err := fs.WriteFile(path, payload); err != nil {
					t.Fatal(err)
				}
			}
			if i%8 == 0 {
				if err := fs.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			checkCacheLive(t, fs, d)
		}
	}
	if fs.Stats().SegmentsCleaned == 0 {
		t.Fatal("the churn never ran the cleaner")
	}
	mustCheck(t, fs)
}

// TestRefusedWriteNotCached pins that the fill runs only after the device
// write succeeds: a batch the media refused and then replayed into a fresh
// segment leaves nothing cached at the refused addresses, and its blocks
// read back from their new ones. A batch no segment takes degrades the
// file system at its last refused placement, which nothing replays, so
// nothing it staged may be cached there either.
func TestRefusedWriteNotCached(t *testing.T) {
	opts := cachedOptions()
	opts.Tracer = faultTestOptions().Tracer
	t.Run("relocated", func(t *testing.T) {
		fs, d := newTestFS(t, 2048, opts)
		bad := faultHeadSegment(t, fs, d, disk.Fault{})
		content := bytes.Repeat([]byte("refused!"), 2*layout.BlockSize/8)
		if err := fs.WriteFile("/r", content); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		if !fs.segs.isQuarantined(bad) {
			t.Fatalf("segment %d not quarantined: the write was not refused", bad)
		}
		for _, addr := range fs.rc.order(t) {
			if fs.segOf(addr) == bad {
				t.Fatalf("refused address %d (segment %d) is cached", addr, bad)
			}
		}
		checkCacheLive(t, fs, d)
		for _, cold := range []bool{false, true} {
			if cold {
				fs.rc.reset()
			}
			got, err := fs.ReadFile("/r")
			if err != nil || !bytes.Equal(got, content) {
				t.Fatalf("read back (cold=%v): %v", cold, err)
			}
		}
		mustCheck(t, fs)
	})
	t.Run("degraded", func(t *testing.T) {
		fs, d := newTestFS(t, 2048, opts)
		before := fs.rc.order(t)
		if err := d.InjectFault(disk.Fault{
			Kind:   disk.FaultWriteError,
			Addr:   fs.sb.SegmentBase,
			Blocks: int64(fs.sb.NumSegments) * fs.segBlocks,
		}); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("/doomed", bytes.Repeat([]byte("x"), layout.BlockSize)); err == nil {
			fs.Sync()
		}
		if !fs.Degraded() {
			t.Fatal("whole-disk write failure did not degrade")
		}
		if after := fs.rc.order(t); !slices.Equal(after, before) {
			t.Fatalf("cached %v after the refused flush, %v before it", after, before)
		}
	})
}

// TestCleanerCopiesNotCached pins that the cleaner's live copies stay out
// of the cache: cold files share segments with hot ones, the hot ones are
// overwritten at random until the cleaner moves the cold blocks, and no
// cold block is cached at its new address (nothing reads them after the
// reset). The two sets fill half the disk, so few segments ever empty out
// and the cleaner must take the half-cold ones.
func TestCleanerCopiesNotCached(t *testing.T) {
	fs, d := newTestFS(t, 2048, cachedOptions())
	const n = 500
	payload := func(tag byte, r int) []byte { return bytes.Repeat([]byte{tag, byte(r)}, layout.BlockSize/2) }
	for i := 0; i < n; i++ {
		for _, p := range []string{fmt.Sprintf("/cold%03d", i), fmt.Sprintf("/hot%03d", i)} {
			if err := fs.WriteFile(p, payload(p[1], 0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	was := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("/cold%03d", i)
		_, was[p] = dataBlockAddr(t, fs, p, 0)
	}
	fs.rc.reset()
	rng := rand.New(rand.NewSource(1))
	for r := 1; r <= 6; r++ {
		for i := 0; i < n; i++ {
			if err := fs.WriteFile(fmt.Sprintf("/hot%03d", rng.Intn(n)), payload('h', r)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fs.Clean(); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for p, old := range was {
		_, addr := dataBlockAddr(t, fs, p, 0)
		if addr == old {
			continue
		}
		moved++
		if _, ok := fs.rc.get(addr); ok {
			t.Fatalf("%s: the cleaner's copy at %d is cached", p, addr)
		}
	}
	if moved == 0 {
		t.Fatal("the cleaner moved no cold block")
	}
	checkCacheLive(t, fs, d)
	mustCheck(t, fs)
}
