package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// Recovery's read discipline (DESIGN.md §4): never read a block twice,
// never issue two requests for adjacent blocks already known to be needed,
// and let a fault cost exactly the block it sits on.

// logImage is a crashed file system: a checkpoint, then partial writes
// that were synced but never checkpointed.
type logImage struct {
	snap  *disk.Snapshot
	opts  Options
	files map[string][]byte // every file acknowledged before the cut
	nv    []byte            // the NVRAM's contents at the cut, if one was attached
}

// buildLogImage formats a device, runs script on it — write creates a 1 KB
// file and remembers it — and cuts the power. With pendingNV an NVRAM is
// attached and three more files are written after the script's last Sync:
// they are acknowledged, and only the NVRAM holds them.
func buildLogImage(tb testing.TB, opts Options, nblocks int64, pendingNV bool, script func(fs *FS, write func(path string))) *logImage {
	tb.Helper()
	img := &logImage{opts: opts, files: map[string][]byte{}}
	var nv *NVRAM
	if pendingNV {
		nv = NewNVRAM(1 << 16)
		opts.NVRAM = nv
	}
	d := disk.MustNew(disk.DefaultGeometry(nblocks))
	fs, err := Format(d, opts)
	if err != nil {
		tb.Fatal(err)
	}
	write := func(path string) {
		data := content(path, 1, 1)[:1024]
		if err := fs.WriteFile(path, data); err != nil {
			tb.Fatal(err)
		}
		img.files[path] = data
	}
	script(fs, write)
	if pendingNV {
		for i := 0; i < 3; i++ {
			write(fmt.Sprintf("/nv-only-%d", i))
		}
		if nv.Pending() == 0 {
			tb.Fatal("no NVRAM records pending at the cut")
		}
		img.nv = nv.Bytes()
	}
	d.Crash()
	img.snap = d.Snapshot()
	return img
}

// mount mounts a fresh clone of the image, with a copy of its NVRAM when it
// has one.
func (img *logImage) mount(tb testing.TB, tr *obs.Tracer) *FS {
	tb.Helper()
	opts := img.opts
	opts.Tracer = tr
	if img.nv != nil {
		opts.NVRAM = NewNVRAM(1 << 16)
		if err := opts.NVRAM.Restore(img.nv); err != nil {
			tb.Fatal(err)
		}
	}
	fs, err := Mount(disk.FromSnapshot(img.snap), opts)
	if err != nil {
		tb.Fatal(err)
	}
	return fs
}

// sharedDirsScript checkpoints ndirs directories and then syncs nwrites
// times, each sync adding perDir small files to every directory — so every
// post-checkpoint partial write rewrites the inodes of the same few
// directories, which is what makes roll-forward meet each of them again and
// again.
func sharedDirsScript(tb testing.TB, ndirs, nwrites, perDir int) func(fs *FS, write func(path string)) {
	return func(fs *FS, write func(path string)) {
		for i := 0; i < ndirs; i++ {
			if err := fs.Mkdir(fmt.Sprintf("/d%02d", i)); err != nil {
				tb.Fatal(err)
			}
			write(fmt.Sprintf("/d%02d/old", i))
		}
		if err := fs.Checkpoint(); err != nil {
			tb.Fatal(err)
		}
		for w := 0; w < nwrites; w++ {
			for i := 0; i < ndirs; i++ {
				for k := 0; k < perDir; k++ {
					write(fmt.Sprintf("/d%02d/w%03d.%d", i, w, k))
				}
			}
			mustFlush(tb, fs)
		}
	}
}

func sharedDirsImage(tb testing.TB, opts Options, nblocks int64, ndirs, nwrites, perDir int) *logImage {
	tb.Helper()
	return buildLogImage(tb, opts, nblocks, false, sharedDirsScript(tb, ndirs, nwrites, perDir))
}

// benchmarkScript is the shape of the repository benchmark's recovery image:
// n files spread over ndirs directories, a checkpoint, as many files again,
// one flush (the benchmark's Sync, which an NVRAM would absorb).
func benchmarkScript(tb testing.TB, ndirs, n int) func(fs *FS, write func(path string)) {
	return func(fs *FS, write func(path string)) {
		for i := 0; i < ndirs; i++ {
			if err := fs.Mkdir(fmt.Sprintf("/d%02d", i)); err != nil {
				tb.Fatal(err)
			}
		}
		for i := 0; i < 2*n; i++ {
			if i == n {
				if err := fs.Checkpoint(); err != nil {
					tb.Fatal(err)
				}
			}
			write(fmt.Sprintf("/d%02d/f%04d", i%ndirs, i))
		}
		mustFlush(tb, fs)
	}
}

// superblock returns a clone of the image's device and its superblock, read
// without charging the device.
func (img *logImage) superblock(t *testing.T) (*disk.Disk, *layout.Superblock) {
	t.Helper()
	d := disk.FromSnapshot(img.snap)
	sbBuf, err := d.Peek(0)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := layout.DecodeSuperblock(sbBuf)
	if err != nil {
		t.Fatal(err)
	}
	return d, sb
}

// partialWrite is one summary of an image's log with what it describes.
type partialWrite struct {
	sumAddr int64
	entries []layout.SummaryEntry // entry i is the block at sumAddr+1+i
}

func (p partialWrite) holds(addr int64) bool {
	return addr > p.sumAddr && addr <= p.sumAddr+int64(len(p.entries))
}

// peekSource reads an image without charging the device.
func peekSource(d *disk.Disk) layout.BlockSource {
	return func(addr int64) ([]byte, error) { return d.Peek(addr) }
}

// threadOf lists the partial writes roll-forward will apply to the image —
// the log thread from its newest checkpoint — and the address at which that
// thread ends (the block that no longer decodes).
func threadOf(t *testing.T, img *logImage) (writes []partialWrite, end int64) {
	t.Helper()
	d, sb := img.superblock(t)
	cp, _, err := readBestCheckpoint(d, sb, 0)
	if err != nil {
		t.Fatal(err)
	}
	segBlocks := int64(sb.SegmentBlocks)
	s := layout.NewWalkScratch()
	pos := layout.LogPos{Seg: cp.HeadSeg, Off: int64(cp.HeadOffset), NextSeg: cp.NextSeg, WriteSeq: cp.WriteSeq}
	w := layout.WalkThread(peekSource(d), sb.SegmentBase, segBlocks, pos, math.MaxUint64, s)
	for w.Next() {
		writes = append(writes, partialWrite{
			sumAddr: w.DataAddr() - 1,
			entries: append([]layout.SummaryEntry(nil), s.Entries...),
		})
	}
	if e, _ := w.End(); e != layout.EndDecode {
		t.Fatalf("the image's log thread ends with %s, want the first undecodable block", e)
	}
	return writes, sb.SegmentBase + w.Pos().Seg*segBlocks + w.Pos().Off
}

// logKinds maps every block some summary of the image describes to its kind.
func logKinds(t *testing.T, img *logImage) map[int64]layout.BlockKind {
	t.Helper()
	d, sb := img.superblock(t)
	kinds := map[int64]layout.BlockKind{}
	s := layout.NewWalkScratch()
	segBlocks := int64(sb.SegmentBlocks)
	for start := sb.SegmentBase; start+segBlocks <= d.NumBlocks(); start += segBlocks {
		w := layout.WalkSegment(peekSource(d), start, segBlocks, s)
		for w.Next() {
			for i, e := range s.Entries {
				kinds[w.DataAddr()+int64(i)] = e.Kind
			}
		}
	}
	return kinds
}

// namedDirBlocks returns, in address order, the blocks of the directories
// the tail's records name: what the repair pass's sweep reads. Every such
// directory must have been rewritten in the tail, as the sweep reads only
// those.
func namedDirBlocks(t *testing.T, img *logImage) []int64 {
	t.Helper()
	d, _ := img.superblock(t)
	writes, _ := threadOf(t, img)
	named, inodes := map[uint32]bool{}, map[uint32]*layout.Inode{}
	for _, pw := range writes {
		for i, e := range pw.entries {
			buf, err := d.Peek(pw.sumAddr + 1 + int64(i))
			if err != nil {
				t.Fatal(err)
			}
			switch e.Kind {
			case layout.KindInode:
				inos, err := layout.DecodeInodeBlock(buf)
				if err != nil {
					t.Fatal(err)
				}
				for i := range inos {
					inodes[inos[i].Inum] = &inos[i]
				}
			case layout.KindDirLog:
				ops, err := layout.DecodeDirOpLog(buf)
				if err != nil {
					t.Fatal(err)
				}
				for _, op := range ops {
					named[op.Dir] = true
					if op.Op == layout.DirOpRename {
						named[op.Dir2] = true
					}
				}
			}
		}
	}
	var blocks []int64
	for dir := range named {
		ino := inodes[dir]
		if ino == nil {
			t.Fatalf("directory %d is named in the tail but not rewritten there", dir)
		}
		for bn := 0; int64(bn)*layout.BlockSize < int64(ino.Size); bn++ {
			blocks = append(blocks, ino.Direct[bn])
		}
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	return blocks
}

// namedDirRuns counts the runs the named directories' blocks form under the
// device's read-through gap: the most requests the repair sweep may make.
func namedDirRuns(t *testing.T, img *logImage) int {
	t.Helper()
	blocks := namedDirBlocks(t, img)
	gap, runs := disk.DefaultGeometry(1).ReadThroughBlocks(), 0
	for k, a := range blocks {
		if k == 0 || a-blocks[k-1]-1 > gap {
			runs++
		}
	}
	return runs
}

// TestRepairSweepFaults corrupts a directory block the tail wrote and the
// repair pass needs, and separately makes it unreadable. The sweep reads it
// and leaves its directory to loadDir, so the mount ends as it did when each
// directory was read on its own — the outcomes below are that reader's — and
// the corrupt block is counted once.
func TestRepairSweepFaults(t *testing.T) {
	opts := Options{SegmentBlocks: 32, MaxInodes: 2048}
	img := buildLogImage(t, opts, 8192, false, benchmarkScript(t, 10, 400))
	blocks := namedDirBlocks(t, img)
	addr := blocks[len(blocks)/2]
	for _, c := range []struct {
		name                  string
		kind                  disk.FaultKind
		err                   string
		corrupts, quarantines int64
	}{
		{"corrupt", disk.FaultCorrupt, "lfs: corrupted block: ino 7 offset 0 addr %d", 1, 1},
		{"unreadable", disk.FaultReadError, "disk: media read error at block %d", 0, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := disk.FromSnapshot(img.snap)
			if err := d.InjectFault(disk.Fault{Kind: c.kind, Addr: addr, Seed: 7}); err != nil {
				t.Fatal(err)
			}
			o := opts
			o.Tracer = obs.New(nil)
			fs, err := Mount(d, o)
			if want := fmt.Sprintf(c.err, addr); fs != nil || fmt.Sprint(err) != want {
				t.Errorf("Mount: %v, %v; want no file system and %s", fs != nil, err, want)
			}
			m := o.Tracer.Metrics()
			if n := m.Counter(obs.CtrCorruptBlocks); n != c.corrupts {
				t.Errorf("%s = %d, want %d", obs.CtrCorruptBlocks, n, c.corrupts)
			}
			if n := m.Counter(obs.CtrQuarantinedSegs); n != c.quarantines {
				t.Errorf("%s = %d, want %d", obs.CtrQuarantinedSegs, n, c.quarantines)
			}
		})
	}
}

// bufferFullTail formats a disk and builds a tail shaped like Figure 8's
// create phase — small files in dirs directories, n buffer-full flushes
// after a checkpoint — and cuts the power. It returns the device, its
// options, the files' paths and how many of them the flushes hold.
func bufferFullTail(t *testing.T, n, dirs int) (d *disk.Disk, opts Options, path func(int) string, durable int) {
	t.Helper()
	opts = Options{SegmentBlocks: 128, MaxInodes: 8192}
	d = disk.MustNew(disk.DefaultGeometry(16384))
	fs, err := Format(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dirs; i++ {
		if err := fs.Mkdir(fmt.Sprintf("/d%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	path = func(i int) string { return fmt.Sprintf("/d%02d/f%05d", i%dirs, i) }
	for i, flushes := 0, 0; flushes < n; i++ {
		before := fs.Stats().NewDataBytes
		if err := fs.WriteFile(path(i), content(path(i), 1, 1)[:1024]); err != nil {
			t.Fatal(err)
		}
		if fs.Stats().NewDataBytes != before {
			flushes, durable = flushes+1, i+1
		}
	}
	d.Crash()
	return d, opts, path, durable
}

// TestRollForwardOneRequestPerFlush counts roll-forward's read requests over
// a bufferFullTail. Each flush ends at a segment boundary with its dirlog
// beside its inode blocks, so the next summary rides on the request that
// reads them: one request per flush, plus the first summary and the end of
// the log. Every file the flushes hold comes back.
func TestRollForwardOneRequestPerFlush(t *testing.T) {
	const n = 8
	d, opts, path, durable := bufferFullTail(t, n, 20)
	tr := obs.New(nil)
	opts.Tracer = tr
	fs2, err := Mount(disk.FromSnapshot(d.Snapshot()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if reads := tr.Metrics().Counter(obs.CtrRecoveryPhasePrefix + "rollforward.reads"); reads > n+2 {
		t.Errorf("roll-forward made %d read requests for %d buffer-full flushes, want at most %d", reads, n, n+2)
	}
	for i := 0; i < durable; i++ {
		if got, err := fs2.ReadFile(path(i)); err != nil || !bytes.Equal(got, content(path(i), 1, 1)[:1024]) {
			t.Fatalf("%s, flushed before the power cut: %d bytes, %v", path(i), len(got), err)
		}
	}
	mustCheck(t, fs2)
}

// TestSalvageScanRidesSegmentBoundary: salvage's scan over a bufferFullTail
// reads the blocks it decodes at the end of each flush, which is its
// segment's end, and the next segment's first summary in the same request.
// So every segment but the first, which also holds the format's and the
// mkdirs' partial writes, costs at most one request: a flush's its metadata,
// a clean segment's its first block — and the scan still walks every flush.
func TestSalvageScanRidesSegmentBoundary(t *testing.T) {
	const n = 8
	d, opts, _, _ := bufferFullTail(t, n, 20)
	ring := obs.NewRingSink(1 << 14)
	opts.Tracer = obs.New(ring)
	fs, _ := salvageScanOf(t, &logImage{snap: d.Snapshot(), opts: opts})
	opened := len(ring.Events()) // the superblock and checkpoint-region reads
	rep := &SalvageReport{}
	fs.salvageScan(rep)
	if ring.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; grow the sink", ring.Dropped())
	}
	reads := make([]int, fs.nsegs)
	for _, e := range ring.Events()[opened:] {
		if e.Kind == obs.KindDiskIO && e.Disk.Op == "read" {
			reads[fs.segOf(e.Disk.Addr)]++
		}
	}
	for seg := int64(1); seg < fs.nsegs; seg++ {
		if reads[seg] > 1 {
			t.Errorf("the scan made %d read requests in segment %d, want at most 1", reads[seg], seg)
		}
	}
	if rep.SummariesWalked < n || rep.BlocksDropped != 0 {
		t.Errorf("the scan walked %d summaries and dropped %d blocks; the log holds %d buffer-full flushes, all intact", rep.SummariesWalked, rep.BlocksDropped, n)
	}
}

// mountPhases are Mount's phases in the order it runs them.
var mountPhases = []string{"cpload", "rollforward", "dirops", "usage", "commit", "nvreplay"}

// TestMountReadsNoBlockTwice mounts crashed images — one whose
// post-checkpoint partial writes all rewrite the same directories, one shaped
// like the repository benchmark's, each with and without NVRAM records
// pending — and checks every read request of the whole Mount, attributed to
// its phase by the fs.recovery.* counters: recovery — everything up to its
// commit checkpoint — reads no address twice, usage recomputation reads
// nothing, data blocks are read only where a directory's contents are needed
// (the repair pass and NVRAM replay), and the scan makes no two consecutive
// single-block requests for adjacent blocks that one partial write describes.
// NVRAM replay is ordinary operations on the recovered file system: what they
// read again (an inode block the scan fetched for its accounting, the
// summaries a verify-on-read harvest walks) is the read path's business.
func TestMountReadsNoBlockTwice(t *testing.T) {
	shapes := []struct {
		name    string
		opts    Options
		nblocks int64
		script  func(fs *FS, write func(path string))
	}{
		// 4 directories + 40 files a sync: every flush ends in three inode blocks.
		{"shared-dirs", Options{SegmentBlocks: 128, MaxInodes: 2048}, 8192, sharedDirsScript(t, 4, 24, 10)},
		{"benchmark", Options{SegmentBlocks: 32, MaxInodes: 2048}, 8192, benchmarkScript(t, 10, 400)},
	}
	for _, shape := range shapes {
		for _, pendingNV := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/nvram=%v", shape.name, pendingNV), func(t *testing.T) {
				img := buildLogImage(t, shape.opts, shape.nblocks, pendingNV, shape.script)
				writes, _ := threadOf(t, img)
				if len(writes) < 20 {
					t.Fatalf("the image has %d post-checkpoint partial writes, want at least 20", len(writes))
				}
				kinds := logKinds(t, img)

				ring := obs.NewRingSink(1 << 16)
				fs := img.mount(t, obs.New(ring))
				if ring.Dropped() != 0 {
					t.Fatalf("ring dropped %d events; grow the sink", ring.Dropped())
				}
				if fs.Degraded() {
					t.Fatalf("mount degraded: %s", fs.DegradedReason())
				}
				var reads []*obs.DiskIO
				for _, e := range ring.Events() {
					if e.Kind == obs.KindDiskIO && e.Disk.Op == "read" {
						reads = append(reads, e.Disk)
					}
				}
				m := fs.Metrics()
				byPhase := map[string][]*obs.DiskIO{}
				rest := reads
				for _, phase := range mountPhases {
					n := int(m.Counter(obs.CtrRecoveryPhasePrefix + phase + ".reads"))
					if n > len(rest) {
						t.Fatalf("fs.recovery.%s.reads = %d, but only %d read events are left in the trace", phase, n, len(rest))
					}
					byPhase[phase], rest = rest[:n], rest[n:]
				}
				if len(rest) != 0 {
					t.Fatalf("%d read events belong to no phase", len(rest))
				}

				seen := map[int64]string{}
				repeats := 0
				for _, phase := range mountPhases {
					for _, r := range byPhase[phase] {
						for a := r.Addr; a < r.Addr+int64(r.Blocks); a++ {
							if first, ok := seen[a]; ok && phase != "nvreplay" {
								if repeats++; repeats <= 3 {
									t.Errorf("block %d (%s) is read in %s and again in %s (request %d+%d)", a, kinds[a], first, phase, r.Addr, r.Blocks)
								}
							}
							seen[a] = phase
							if kinds[a] == layout.KindData && phase != "dirops" && phase != "nvreplay" {
								t.Errorf("%s read the data block at %d (request %d+%d)", phase, a, r.Addr, r.Blocks)
							}
						}
					}
				}
				if repeats > 0 {
					t.Errorf("%d of the %d addresses the mount read were read again before its commit (%d requests)", repeats, len(seen), len(reads))
				}
				if n := len(byPhase["usage"]); n != 0 {
					t.Errorf("usage recomputation made %d read requests, want 0", n)
				}
				if n, runs := len(byPhase["dirops"]), namedDirRuns(t, img); n > runs {
					t.Errorf("the repair pass made %d read requests; the named directories' blocks form %d runs", n, runs)
				}
				scan := byPhase["rollforward"]
				for i := 1; i < len(scan); i++ {
					a, b := scan[i-1], scan[i]
					if a.Blocks != 1 || b.Blocks != 1 || b.Addr != a.Addr+1 {
						continue
					}
					for _, pw := range writes {
						if pw.holds(a.Addr) && pw.holds(b.Addr) {
							t.Errorf("requests %d and %d of the scan read the adjacent blocks %d and %d of the partial write at %d one at a time",
								i-1, i, a.Addr, b.Addr, pw.sumAddr)
						}
					}
				}
				for path, want := range img.files {
					if got, err := fs.ReadFile(path); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s after the mount: %d bytes, %v", path, len(got), err)
					}
				}
				mustCheck(t, fs)
				t.Logf("%d requests for %d blocks (scan %d, repair %d), %d partial writes",
					len(reads), len(seen), len(scan), len(byPhase["dirops"]), len(writes))
			})
		}
	}
}

// TestRollForwardPreviousInodeBlockUnreadable: the block holding the
// incarnation an update replaces is read only for usage accounting, which a
// degraded mount never commits — so, like an unreadable block of the update
// itself, it must degrade the mount, not fail it, and leave every file
// whose own blocks are intact readable.
func TestRollForwardPreviousInodeBlockUnreadable(t *testing.T) {
	opts := testOptions()
	fs, d := newTestFS(t, 4096, opts)
	want := map[string][]byte{}
	write := func(path string) {
		want[path] = content(path, 1, 1)
		if err := fs.WriteFile(path, want[path]); err != nil {
			t.Fatal(err)
		}
	}
	for _, dir := range []string{"/a", "/b"} {
		if err := fs.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
	}
	write("/b/f")
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Alone in their flush, /a and /a/x share an inode block with nothing
	// else — the root and /b stay where the first flush put them.
	write("/a/x")
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	inumA, err := fs.resolve("/a")
	if err != nil {
		t.Fatal(err)
	}
	old := fs.imap.get(inumA).Addr
	if root := fs.imap.get(RootInum).Addr; old == root {
		t.Fatalf("/a and the root share inode block %d; the fault would take the root too", root)
	}
	write("/a/y") // rewrites /a's inode after the checkpoint
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	d.Reopen()
	if err := d.InjectFault(disk.Fault{Kind: disk.FaultReadError, Addr: old}); err != nil {
		t.Fatal(err)
	}

	fs2, err := Mount(d, faultTestOptions())
	if err != nil {
		t.Fatalf("Mount with the previous inode block of /a unreadable: %v, want a degraded mount", err)
	}
	if !fs2.Degraded() {
		t.Fatal("mount is not degraded though usage accounting could not be done")
	}
	if reason := fs2.DegradedReason(); !strings.Contains(reason, "roll-forward") || !strings.Contains(reason, fmt.Sprint(old)) {
		t.Fatalf("degraded reason %q names neither roll-forward nor block %d", reason, old)
	}
	if n := fs2.Metrics().Counter(obs.CtrDegradedReasonPrefix + "roll-forward"); n != 1 {
		t.Fatalf("fs.degraded.reason.roll-forward = %d, want 1", n)
	}
	for _, path := range []string{"/b/f", "/a/y"} {
		got, err := fs2.ReadFile(path)
		if err != nil || !bytes.Equal(got, want[path]) {
			t.Errorf("%s after the degraded mount: %d bytes, %v", path, len(got), err)
		}
	}
	// /a/x's own inode is in the unreadable block.
	if _, err := fs2.ReadFile("/a/x"); !errors.Is(err, disk.ErrMediaRead) {
		t.Errorf("/a/x: %v, want the media error of its inode block", err)
	}
	if err := fs2.WriteFile("/b/g", []byte("no")); !errors.Is(err, ErrDegraded) {
		t.Errorf("write on the degraded mount: %v, want ErrDegraded", err)
	}
}

// runSite is a block inside a multi-block run of recovery's reads.
type runSite struct {
	name string
	addr int64
}

// runFaults are the faults TestFaultInsideRun plants at every site.
var runFaults = []struct {
	name  string
	fault disk.Fault
}{
	{"read-error", disk.Fault{Kind: disk.FaultReadError}},
	{"transient-2", disk.Fault{Kind: disk.FaultReadError, Transient: 2}},
	{"corrupt", disk.Fault{Kind: disk.FaultCorrupt, Seed: 99}},
}

func faultedDisk(t *testing.T, snap *disk.Snapshot, f disk.Fault, addr int64) *disk.Disk {
	t.Helper()
	d := disk.FromSnapshot(snap)
	f.Addr = addr
	if err := d.InjectFault(f); err != nil {
		t.Fatal(err)
	}
	return d
}

// blockAtATimeScan is the reference scan TestFaultInsideRun compares
// salvage with: it fetches every described block with a request of its own
// through readRetry and judges it then — what the product did before it
// read partial writes in runs, and before it read data only for the inode
// versions it tries. It is a reference, not a product path.
func blockAtATimeScan(fs *FS, rep *SalvageReport) *salvScan {
	sc := newSalvScan(fs)
	s := layout.NewWalkScratch()
	blk := make([]byte, layout.BlockSize)
	for seg := int64(0); seg < fs.nsegs; seg++ {
		rep.SegmentsScanned++
		w := fs.walkSegment(seg, s)
		for w.Next() {
			rep.SummariesWalked++
			sc.maxSeq = max(sc.maxSeq, s.WriteSeq)
			sc.maxTime = max(sc.maxTime, s.Timestamp)
			fs.usage.noteWrite(seg, s.Timestamp)
			sc.describe(w.DataAddr(), s.WriteSeq, s.Entries)
			for i, e := range s.Entries {
				addr := w.DataAddr() + int64(i)
				b := sc.block(addr)
				b.read = true
				if err := fs.readRetry(addr, blk); err != nil {
					rep.BlocksDropped++
					if errors.Is(err, disk.ErrMediaRead) {
						fs.quarantineSeg(seg)
					}
					continue
				}
				if layout.Checksum(blk) != e.Sum {
					rep.BlocksDropped++
					continue
				}
				rep.BlocksVerified++
				b.intact = true
				sc.dirData[addr] = bytes.Clone(blk) // whichever a directory turns out to want
				fs.sums.record(addr, s.Entries[i:i+1])
				switch e.Kind {
				case layout.KindIndirect:
					sc.ptrs[addr] = layout.DecodeIndirectBlock(blk)
				case layout.KindInode:
					inos, err := layout.DecodeInodeBlock(blk)
					for slot := 0; err == nil && slot < len(inos); slot++ {
						if ino := &inos[slot]; ino.Inum >= RootInum && int(ino.Inum) < fs.imap.maxInodes() {
							sc.cands = append(sc.cands, salvCand{ino: ino, addr: addr, slot: uint16(slot), seq: s.WriteSeq})
						}
					}
				case layout.KindDirLog:
					if ops, err := layout.DecodeDirOpLog(blk); err == nil {
						for _, op := range ops {
							sc.maxDirSeq = max(sc.maxDirSeq, op.Seq+1)
						}
					}
				}
			}
		}
		if _, err := w.End(); errors.Is(err, disk.ErrMediaRead) {
			fs.quarantineSeg(seg)
		}
	}
	return sc
}

// acceptedVersion is what salvage accepted for one inum, as it accepted it.
type acceptedVersion struct {
	addr int64
	slot uint16
	data map[uint32]int64
	meta []int64
}

// salvageSteps salvages d the way SalvageImage does, with scan in place of
// the product's scan, and returns the salvaged FS, its report and the
// version it accepted for each inum.
func salvageSteps(t *testing.T, d *disk.Disk, opts Options, scan func(*FS, *SalvageReport) *salvScan) (*FS, *SalvageReport, map[uint32]acceptedVersion) {
	t.Helper()
	fs, _, _ := openImage(d, opts)
	if fs == nil {
		t.Fatal("salvage: superblock unreadable")
	}
	fs.mounted = true
	rep := &SalvageReport{}
	sc := scan(fs, rep)
	acc := fs.salvageAcceptInodes(sc, rep)
	versions := make(map[uint32]acceptedVersion)
	for inum, a := range acc {
		if a.ino == nil {
			continue
		}
		// The data and indirect blocks are those the usage rebuild counts:
		// the accepted block map walked over the pointers the scan verified.
		v := acceptedVersion{addr: a.addr, slot: a.slot, data: map[uint32]int64{}}
		err := layout.WalkBlockMap(a.ino, func(p int64) ([]int64, error) { return sc.ptrs[p], nil },
			func(kind layout.BlockKind, bn uint32, p int64) error {
				if kind == layout.KindIndirect {
					v.meta = append(v.meta, p)
				} else {
					v.data[bn] = p
				}
				return nil
			})
		if err != nil {
			t.Fatalf("inum %d: accepted block map: %v", inum, err)
		}
		versions[uint32(inum)] = v
	}
	if err := fs.salvageRebuild(sc, acc, rep, nil); err != nil {
		t.Fatalf("salvage: %v", err)
	}
	return fs, rep, versions
}

// references is every block an accepted image is built from.
func references(acc map[uint32]acceptedVersion) map[int64]bool {
	refs := map[int64]bool{}
	for _, v := range acc {
		refs[v.addr] = true
		for _, a := range v.data {
			refs[a] = true
		}
		for _, a := range v.meta {
			refs[a] = true
		}
	}
	return refs
}

// withoutBlockCounts is a report without the two counts that depend on
// which blocks salvage examined.
func withoutBlockCounts(rep *SalvageReport) SalvageReport {
	r := *rep
	r.BlocksVerified, r.BlocksDropped = 0, 0
	return r
}

// readable maps every path of want to whether fs returns its bytes.
func readable(fs *FS, want map[string][]byte) map[string]bool {
	out := make(map[string]bool, len(want))
	for path, data := range want {
		got, err := fs.ReadFile(path)
		out[path] = err == nil && bytes.Equal(got, data)
	}
	return out
}

// readableDiff lists, in order, the paths on which two readable maps differ.
func readableDiff(a, b map[string]bool) []string {
	var diff []string
	for path := range a {
		if a[path] != b[path] {
			diff = append(diff, path)
		}
	}
	sort.Strings(diff)
	return diff
}

// runSitesOf picks the partial write of the image's thread with the longest
// run of adjacent blocks recovery reads — for salvage every block the
// summary describes, for roll-forward its trailing dirlog and inode
// blocks — and returns the run's first, a middle and its last block, plus
// the summary after it, which rides on the same request. When the run does
// not start with an inode block, its first inode block is a site too.
func runSitesOf(t *testing.T, writes []partialWrite, wanted func(layout.BlockKind) bool) []runSite {
	t.Helper()
	var best partialWrite
	bestFrom, bestLen := 0, 0
	for _, pw := range writes[:len(writes)-1] { // the last write has no summary after it
		from := len(pw.entries)
		for from > 0 && wanted(pw.entries[from-1].Kind) {
			from--
		}
		if n := len(pw.entries) - from; n > bestLen {
			best, bestFrom, bestLen = pw, from, n
		}
	}
	if bestLen < 3 {
		t.Fatalf("the longest run is %d blocks, want at least 3", bestLen)
	}
	first := best.sumAddr + 1 + int64(bestFrom)
	sites := []runSite{
		{"first", first},
		{"middle", first + int64(bestLen/2)},
		{"last", first + int64(bestLen) - 1},
		{"next-summary", first + int64(bestLen)},
	}
	if k := slices.IndexFunc(best.entries[bestFrom:], func(e layout.SummaryEntry) bool { return e.Kind == layout.KindInode }); k > 0 {
		sites = append(sites, runSite{"first-inode", first + int64(k)})
	}
	return sites
}

// TestFaultInsideRun plants each kind of read fault on the first, a middle
// and the last block of a multi-block run, and on the summary that rides
// behind it, and checks that the fault costs what it cost a reader that
// fetched one block at a time: salvage drops the same blocks, quarantines
// the same segments and hands back the same files; roll-forward degrades at
// the same block with the same reason.
func TestFaultInsideRun(t *testing.T) {
	opts := faultTestOptions()
	// Segments with room for a whole sync in one partial write, and 51
	// inodes a sync: three inode blocks end each flush.
	opts.SegmentBlocks = 128
	img := sharedDirsImage(t, opts, 8192, 3, 6, 16)
	writes, _ := threadOf(t, img)

	t.Run("salvage", func(t *testing.T) {
		kinds := logKinds(t, img)
		_, _, healthy := salvageSteps(t, disk.FromSnapshot(img.snap), img.opts, (*FS).salvageScan)
		used := references(healthy)
		all := func(layout.BlockKind) bool { return true }
		for _, site := range runSitesOf(t, writes, all) {
			for _, f := range runFaults {
				t.Run(site.name+"/"+f.name, func(t *testing.T) {
					ref, refRep, refAcc := salvageSteps(t, faultedDisk(t, img.snap, f.fault, site.addr), img.opts, blockAtATimeScan)
					fs, rep, acc := salvageSteps(t, faultedDisk(t, img.snap, f.fault, site.addr), img.opts, (*FS).salvageScan)
					if !reflect.DeepEqual(acc, refAcc) {
						t.Errorf("accepted %d inodes, block at a time %d, and not the same versions", len(acc), len(refAcc))
					}
					if got, want := withoutBlockCounts(rep), withoutBlockCounts(refRep); got != want {
						t.Errorf("report %+v,\nblock at a time %+v", *rep, *refRep)
					}
					if diff := readableDiff(readable(fs, img.files), readable(ref, img.files)); len(diff) > 0 {
						t.Errorf("%d files are readable after one salvage and not the other, first %s", len(diff), diff[0])
					}
					// Both scans read every summary and every metadata block;
					// a data block costs the same only when the fault-free
					// image uses it.
					if kind, described := kinds[site.addr]; described && !salvageReads(kind) && !used[site.addr] {
						return
					}
					if rep.BlocksDropped != refRep.BlocksDropped {
						t.Errorf("dropped %d blocks, block at a time %d", rep.BlocksDropped, refRep.BlocksDropped)
					}
					if got, want := fs.QuarantinedSegments(), ref.QuarantinedSegments(); !reflect.DeepEqual(got, want) {
						t.Errorf("quarantined %v, block at a time %v", got, want)
					}
					if f.name == "read-error" && site.name != "next-summary" && rep.BlocksDropped != 1 {
						t.Errorf("an unreadable block inside a run dropped %d blocks, want exactly that one", rep.BlocksDropped)
					}
				})
			}
		}
	})

	t.Run("roll-forward", func(t *testing.T) {
		clean, err := Mount(disk.FromSnapshot(img.snap), img.opts)
		if err != nil {
			t.Fatal(err)
		}
		healthy := readable(clean, img.files)
		kinds := logKinds(t, img)
		sites := runSitesOf(t, writes, rollForwardReads)
		if kinds[sites[0].addr] != layout.KindDirLog || sites[len(sites)-1].name != "first-inode" {
			t.Fatalf("the run starts with a %v block, want the flush's dirlog in front of its inode blocks", kinds[sites[0].addr])
		}
		for _, site := range sites {
			for _, f := range runFaults {
				t.Run(site.name+"/"+f.name, func(t *testing.T) {
					d := faultedDisk(t, img.snap, f.fault, site.addr)
					fs, err := Mount(d, img.opts)
					switch {
					case f.name == "transient-2":
						// Clears inside the retry ladder: nothing to see.
						if err != nil || fs.Degraded() {
							t.Fatalf("mount: %v, degraded %v; want the fault retried away", err, err == nil && fs.Degraded())
						}
						if diff := readableDiff(readable(fs, img.files), healthy); len(diff) > 0 {
							t.Errorf("%d files differ from the fault-free mount, first %s", len(diff), diff[0])
						}
					case f.name == "corrupt" && site.name == "next-summary":
						// Indistinguishable from the torn end of the log.
						if err != nil || fs.Degraded() {
							t.Fatalf("mount: %v; want the log to end at the corrupt summary", err)
						}
					case f.name == "corrupt" && kinds[site.addr] == layout.KindDirLog:
						// A dirlog block checks its records' CRC, and the
						// mount reports one that fails it. A flip the decoder
						// does not see (a header byte it does not read)
						// changes no record, and the mount recovers what a
						// clean one does. The planted flip is checked, and
						// a second seed's, until both kinds have been seen.
						reported := false
						for seed := f.fault.Seed; seed == f.fault.Seed || !reported; seed++ {
							if seed != f.fault.Seed {
								d = faultedDisk(t, img.snap, disk.Fault{Kind: disk.FaultCorrupt, Seed: seed}, site.addr)
								fs, err = Mount(d, img.opts)
							}
							blk := make([]byte, layout.BlockSize)
							if rerr := d.Read(site.addr, blk); rerr != nil {
								t.Fatal(rerr)
							}
							if _, derr := layout.DecodeDirOpLog(blk); derr != nil {
								reported = true
								if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("dirlog block at %d", site.addr)) {
									t.Fatalf("seed %d: mount: %v, want the corrupt dirlog block at %d reported", seed, err, site.addr)
								}
							} else if err != nil || fs.Degraded() {
								t.Fatalf("seed %d: mount: %v; the flip changes no record of the dirlog block", seed, err)
							} else if diff := readableDiff(readable(fs, img.files), healthy); len(diff) > 0 {
								t.Errorf("seed %d: %d files differ from the fault-free mount, first %s", seed, len(diff), diff[0])
							}
						}
					case f.name == "corrupt":
						// A packed inode block checks its own CRC.
						if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("inode block at %d", site.addr)) {
							t.Fatalf("mount: %v, want the corrupt inode block at %d reported", err, site.addr)
						}
					default:
						if err != nil || !fs.Degraded() {
							t.Fatalf("mount: %v, want a degraded mount", err)
						}
						what := kinds[site.addr].String() + " block"
						if site.name == "next-summary" {
							what = "summary"
						}
						want := fmt.Sprintf("roll-forward %s at %d unreadable", what, site.addr)
						if reason := fs.DegradedReason(); !strings.HasPrefix(reason, want) {
							t.Fatalf("degraded reason %q, want it to start %q", reason, want)
						}
						// What the checkpoint covers is untouched by the tail.
						for path, ok := range readable(fs, img.files) {
							if !ok && strings.HasSuffix(path, "/old") {
								t.Errorf("%s, checkpointed before the log tail, is not readable", path)
							}
						}
					}
				})
			}
		}
	})
}

// TestSalvageReadsNoDeadBlock plants a read error on every superseded data
// block of an image with overwritten files and a directory rewritten at
// every Sync — every described data block the fault-free salvage does not
// build its image from (metadata blocks, superseded or not, the scan reads
// by design). Salvage must not notice: its report, quarantine list and
// readable files equal the fault-free salvage's, and on either image the
// directory rebuild reads nothing.
func TestSalvageReadsNoDeadBlock(t *testing.T) {
	img := segmentsImage(t, 4, true)
	salvage := func(d *disk.Disk) (*FS, *SalvageReport, obs.Snapshot) {
		opts := img.opts
		opts.Tracer = obs.New(nil)
		fs, rep, err := SalvageImage(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		m := opts.Tracer.Metrics()
		return fs, rep, m
	}
	clean, cleanRep, cleanM := salvage(disk.FromSnapshot(img.snap))
	_, _, acc := salvageSteps(t, disk.FromSnapshot(img.snap), img.opts, (*FS).salvageScan)
	used := references(acc)

	d := disk.FromSnapshot(img.snap)
	dead := 0
	for addr, kind := range logKinds(t, img) {
		if kind == layout.KindData && !used[addr] {
			if err := d.InjectFault(disk.Fault{Kind: disk.FaultReadError, Addr: addr}); err != nil {
				t.Fatal(err)
			}
			dead++
		}
	}
	if dead < 100 {
		t.Fatalf("%d superseded data blocks; the image is not the one this test is about", dead)
	}
	fs, rep, m := salvage(d)
	if *rep != *cleanRep {
		t.Errorf("report %+v,\nfault-free %+v", *rep, *cleanRep)
	}
	if got, want := fs.QuarantinedSegments(), clean.QuarantinedSegments(); !reflect.DeepEqual(got, want) {
		t.Errorf("quarantined %v, fault-free %v", got, want)
	}
	if diff := readableDiff(readable(fs, img.files), readable(clean, img.files)); len(diff) > 0 {
		t.Errorf("%d files are readable after one salvage and not the other, first %s", len(diff), diff[0])
	}
	for name, m := range map[string]obs.Snapshot{"fault-free": cleanM, "faulted": m} {
		if n := m.Counter(obs.CtrSalvagePhasePrefix + "rebuild.reads"); n != 0 {
			t.Errorf("%s salvage: the rebuild made %d read requests, want 0", name, n)
		}
	}
	t.Logf("%d superseded data blocks never read; %d blocks verified", dead, rep.BlocksVerified)
}

// TestSalvageFallsBackPastCorruptData corrupts one data block of a file's
// newest version: salvage reads it, drops it, and accepts the older intact
// version — the one the block-at-a-time reference accepts.
func TestSalvageFallsBackPastCorruptData(t *testing.T) {
	img := segmentsImage(t, 4, true)
	const path = "/s00000" // overwritten: version 1, then version 2
	healthy, _, healthyAcc := salvageSteps(t, disk.FromSnapshot(img.snap), img.opts, (*FS).salvageScan)
	inum, err := healthy.resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := healthyAcc[inum].data[3]

	corrupt := disk.Fault{Kind: disk.FaultCorrupt, Seed: 99}
	ref, refRep, refAcc := salvageSteps(t, faultedDisk(t, img.snap, corrupt, bad), img.opts, blockAtATimeScan)
	fs, rep, acc := salvageSteps(t, faultedDisk(t, img.snap, corrupt, bad), img.opts, (*FS).salvageScan)
	if !reflect.DeepEqual(acc, refAcc) {
		t.Errorf("accepted %d inodes, block at a time %d, and not the same versions", len(acc), len(refAcc))
	}
	if a := acc[inum]; a.addr == healthyAcc[inum].addr && a.slot == healthyAcc[inum].slot {
		t.Fatalf("%s: the version with the corrupt block was accepted", path)
	}
	want := content(path, 1, 8)
	for name, fs := range map[string]*FS{"salvage": fs, "block at a time": ref} {
		if got, err := fs.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: %s reads %d bytes (%v), want version 1", name, path, len(got), err)
		}
	}
	if rep.BlocksDropped != 1 || refRep.BlocksDropped != 1 {
		t.Errorf("dropped %d blocks, block at a time %d; want the corrupt one only", rep.BlocksDropped, refRep.BlocksDropped)
	}
	mustCheck(t, fs)
}

// recoveryCost is what one recovery cost the device and the heap.
type recoveryCost struct {
	dev     disk.Stats
	mallocs uint64
	bytes   uint64
	elapsed time.Duration
}

// measureRecovery runs one recovery on d.
func measureRecovery(d *disk.Disk, run func()) recoveryCost {
	var before, after runtime.MemStats
	dev := d.Stats()
	runtime.ReadMemStats(&before)
	start := time.Now()
	run()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return recoveryCost{
		dev:     d.Stats().Sub(dev),
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		elapsed: elapsed,
	}
}

// reportRecovery replaces the loop's own ns/op, B/op and allocs/op, which
// include cloning the image, with those of the recoveries alone.
func reportRecovery(b *testing.B, total recoveryCost) {
	n := float64(b.N)
	b.ReportAllocs()
	b.ReportMetric(float64(total.dev.ReadOps)/n, "dev-reads/op")
	b.ReportMetric(float64(total.dev.BlocksRead)/float64(total.dev.ReadOps), "blocks/read")
	b.ReportMetric(float64(total.dev.BusyTime.Microseconds())/1e3/n, "sim-ms/op")
	b.ReportMetric(float64(total.mallocs)/n, "allocs/op")
	b.ReportMetric(float64(total.bytes)/n, "B/op")
	b.ReportMetric(float64(total.elapsed.Nanoseconds())/n, "ns/op")
}

func (c *recoveryCost) add(o recoveryCost) {
	c.mallocs += o.mallocs
	c.bytes += o.bytes
	c.elapsed += o.elapsed
	c.dev.ReadOps += o.dev.ReadOps
	c.dev.BlocksRead += o.dev.BlocksRead
	c.dev.BusyTime += o.dev.BusyTime
}

var ledgerOptions = Options{SegmentBlocks: 128, MaxInodes: 1 << 14}

// BenchmarkMountRollForward is the mount row of the per-layer cost ledger:
// one Mount of an image with N post-checkpoint partial writes that all
// rewrite the same 16 directories, in device requests, blocks per request,
// simulated time and heap allocations. creates=5000 is the repository
// benchmark's recovery image (default options, 50 directories, 5 000
// one-block files before the checkpoint and 5 000 after it), whose repair
// pass replays 5 000 creates into directories of 200 entries.
func BenchmarkMountRollForward(b *testing.B) {
	mount := func(b *testing.B, img *logImage) {
		var total recoveryCost
		for i := 0; i < b.N; i++ {
			d := disk.FromSnapshot(img.snap)
			total.add(measureRecovery(d, func() {
				if _, err := Mount(d, img.opts); err != nil {
					b.Fatal(err)
				}
			}))
		}
		reportRecovery(b, total)
	}
	for _, n := range []int{32, 256} {
		b.Run(fmt.Sprintf("writes=%d", n), func(b *testing.B) {
			mount(b, sharedDirsImage(b, ledgerOptions, 32768, 16, n, 1))
		})
	}
	b.Run("creates=5000", func(b *testing.B) {
		mount(b, buildLogImage(b, Options{}, 76800, false, benchmarkScript(b, 50, 5000)))
	})
}

// writtenSegmentsImage fills nsegs segments with 8-block files.
func writtenSegmentsImage(tb testing.TB, nsegs int) *logImage {
	return segmentsImage(tb, nsegs, false)
}

// segmentsImage fills nsegs segments with 8-block files in the root, a Sync
// every 12 files; with rewrite it then overwrites every other file the same
// way. Each Sync rewrites the root's last directory block, so the log holds
// superseded directory blocks either way, and with rewrite half its file
// data is superseded too.
func segmentsImage(tb testing.TB, nsegs int, rewrite bool) *logImage {
	tb.Helper()
	d := disk.MustNew(disk.DefaultGeometry(32768))
	fs, err := Format(d, ledgerOptions)
	if err != nil {
		tb.Fatal(err)
	}
	img := &logImage{opts: ledgerOptions, files: map[string][]byte{}}
	write := func(i, version int) {
		path := fmt.Sprintf("/s%05d", i)
		img.files[path] = content(path, version, 8)
		if err := fs.WriteFile(path, img.files[path]); err != nil {
			tb.Fatal(err)
		}
		if i%12 == 11 {
			if err := fs.Sync(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	n := 0
	for ; fs.segs.head < int64(nsegs); n++ {
		write(n, 1)
	}
	for i := 0; rewrite && i < n; i += 2 {
		write(i, 2)
	}
	if err := fs.Sync(); err != nil {
		tb.Fatal(err)
	}
	d.Crash()
	img.snap = d.Snapshot()
	return img
}

// salvageScanOf opens the image for salvage, ready for fs.salvageScan.
func salvageScanOf(tb testing.TB, img *logImage) (*FS, *disk.Disk) {
	tb.Helper()
	d := disk.FromSnapshot(img.snap)
	fs, _, _ := openImage(d, img.opts)
	if fs == nil {
		tb.Fatal("superblock unreadable")
	}
	return fs, d
}

// salvageVerify is salvage's scan and accept pass: everything it reads
// before the rebuild.
func (fs *FS) salvageVerify(rep *SalvageReport) *salvScan {
	sc := fs.salvageScan(rep)
	fs.salvageAcceptInodes(sc, rep)
	return sc
}

// BenchmarkSalvageScan is the salvage row of the cost ledger: the full-log
// scan (every summary chain, every metadata block) and the accept pass (the
// data of the inode versions it tries) of an image with N written segments
// of 256, and of one whose 16 written segments were followed by overwrites
// of half its files — data salvage never needs to read.
func BenchmarkSalvageScan(b *testing.B) {
	images := []struct {
		name string
		img  func() *logImage
	}{
		{"segments=16", func() *logImage { return writtenSegmentsImage(b, 16) }},
		{"segments=128", func() *logImage { return writtenSegmentsImage(b, 128) }},
		{"rewritten", func() *logImage { return segmentsImage(b, 16, true) }},
	}
	for _, im := range images {
		b.Run(im.name, func(b *testing.B) {
			img := im.img()
			var total recoveryCost
			for i := 0; i < b.N; i++ {
				fs, d := salvageScanOf(b, img)
				total.add(measureRecovery(d, func() { fs.salvageVerify(&SalvageReport{}) }))
			}
			reportRecovery(b, total)
		})
	}
}

// TestAllocsSalvageScan pins the heap allocations of a warm salvage scan
// and accept pass per block the log describes. The blocks arrive in one
// run buffer per pass (a fresh 4 KB buffer for every block put the figure
// above 1 before anything was decoded); what is left is what salvage keeps
// — per inode block one slice of decoded inodes, per directory its block
// map, per directory-log block three allocations whatever its records
// (DecodeDirOpLog), the kept directory blocks, one block table per written
// segment, and the growth of the candidate list — measured at 0.36 on this
// image of 8-block files (0.97 while every file had its own decoded inode,
// candidate list and block map, and the per-inum and per-block state lived
// in maps; 1.08 while the accept pass sorted each inum's candidates with
// sort.Slice); the bound is that plus 10 %.
func TestAllocsSalvageScan(t *testing.T) {
	const maxPerBlock = 0.40
	img := writtenSegmentsImage(t, 16)
	fs, d := salvageScanOf(t, img)
	fs.salvageVerify(&SalvageReport{}) // warm: the walk scratch
	fs.salvageReset()
	rep := &SalvageReport{}
	var sc *salvScan
	c := measureRecovery(d, func() { sc = fs.salvageVerify(rep) })
	described := 0
	for _, seg := range sc.blocks {
		for _, b := range seg {
			if b.described {
				described++
			}
		}
	}
	if described < 1000 || rep.BlocksDropped != 0 {
		t.Fatalf("the log describes %d blocks and salvage dropped %d; the image should hold well over 1000 intact ones", described, rep.BlocksDropped)
	}
	per := float64(c.mallocs) / float64(described)
	t.Logf("%d allocations for %d described blocks (%d verified): %.2f per block", c.mallocs, described, rep.BlocksVerified, per)
	if per > maxPerBlock {
		t.Fatalf("warm salvage scan and accept allocate %.2f times per described block, want at most %.2f", per, float64(maxPerBlock))
	}
}

// breakFirstSummary overwrites the first summary slot of seg so that it
// fails its magic (zeroed) or, with the magic left alone, its checksum.
func breakFirstSummary(tb testing.TB, fs *FS, d *disk.Disk, seg int64, keepMagic bool) {
	tb.Helper()
	blk, err := d.Peek(fs.segStart(seg))
	if err != nil {
		tb.Fatal(err)
	}
	bad := make([]byte, layout.BlockSize)
	if keepMagic {
		copy(bad, blk)
		bad[layout.BlockSize/2] ^= 0xff
	}
	if err := d.Poke(fs.segStart(seg), bad); err != nil {
		tb.Fatal(err)
	}
}

// TestSalvageProbesDeadSegmentOnce pins the floor of the salvage scan
// (PR 18): a segment whose first summary slot fails its magic or
// its checksum costs one request for one block — never written, or
// written and since broken, alike — and nothing is read from it again.
func TestSalvageProbesDeadSegmentOnce(t *testing.T) {
	img := writtenSegmentsImage(t, 4)
	ring := obs.NewRingSink(1 << 14)
	img.opts.Tracer = obs.New(ring)
	fs, d := salvageScanOf(t, img)
	breakFirstSummary(t, fs, d, 1, true)
	breakFirstSummary(t, fs, d, 2, false)
	opened := len(ring.Events()) // the superblock and checkpoint-region reads
	fs.salvageScan(&SalvageReport{})
	if ring.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; grow the sink", ring.Dropped())
	}

	type cost struct{ reads, blocks int }
	perSeg := make([]cost, fs.nsegs)
	for _, e := range ring.Events()[opened:] {
		if e.Kind == obs.KindDiskIO && e.Disk.Op == "read" {
			seg := fs.segOf(e.Disk.Addr)
			perSeg[seg].reads++
			perSeg[seg].blocks += e.Disk.Blocks
		}
	}
	dead := 0
	for seg := int64(0); seg < fs.nsegs; seg++ {
		first, err := d.Peek(fs.segStart(seg))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := layout.DecodeSummary(first); err == nil {
			if perSeg[seg].blocks < 2 {
				t.Errorf("segment %d holds a chain but the scan read %d block(s) of it", seg, perSeg[seg].blocks)
			}
			continue
		}
		dead++
		if perSeg[seg] != (cost{1, 1}) {
			t.Errorf("segment %d has no first summary: %d read request(s) for %d block(s), want 1 for 1", seg, perSeg[seg].reads, perSeg[seg].blocks)
		}
	}
	if want := int(fs.nsegs) - 3; dead < want {
		t.Fatalf("%d dead segments, want at least %d: the image is not the one this test is about", dead, want)
	}
}

// TestSalvageScanFloor is the same floor end to end: with every first
// summary of a freshly formatted image gone, SalvageImage's scan phase
// makes one one-block request per segment on top of the superblock and
// the two checkpoint regions it also counts, and no more.
func TestSalvageScanFloor(t *testing.T) {
	fs, d := newTestFS(t, 4096, testOptions())
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	for seg := int64(0); seg < fs.nsegs; seg++ {
		breakFirstSummary(t, fs, d, seg, seg%2 == 0)
	}
	tr := obs.New(nil)
	fs2, rep, err := SalvageImage(d, Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RootRecreated || rep.SummariesWalked != 0 {
		t.Fatalf("salvage walked %d summaries (root recreated: %v); none should have survived", rep.SummariesWalked, rep.RootRecreated)
	}
	m := tr.Metrics()
	if got, want := m.Counter("fs.salvage.scan.reads"), fs.nsegs+3; got != want {
		t.Errorf("fs.salvage.scan.reads = %d, want %d (%d segments + superblock + 2 checkpoint regions)", got, want, fs.nsegs)
	}
	if got, want := m.Counter("fs.salvage.scan.blocks"), fs.nsegs+1+2*int64(fs.sb.CheckpointBlocks); got != want {
		t.Errorf("fs.salvage.scan.blocks = %d, want %d", got, want)
	}
	mustCheck(t, fs2)
}

// tailInums counts the distinct inums of the inodes the image's log thread
// holds: the inodes a mount recovers by rolling forward.
func tailInums(t *testing.T, img *logImage) int {
	t.Helper()
	d, _ := img.superblock(t)
	writes, _ := threadOf(t, img)
	inums := map[uint32]bool{}
	for _, pw := range writes {
		for i, e := range pw.entries {
			if e.Kind != layout.KindInode {
				continue
			}
			buf, err := d.Peek(pw.sumAddr + 1 + int64(i))
			if err != nil {
				t.Fatal(err)
			}
			inos, err := layout.DecodeInodeBlock(buf)
			if err != nil {
				t.Fatal(err)
			}
			for _, ino := range inos {
				inums[ino.Inum] = true
			}
		}
	}
	return len(inums)
}

// TestAllocsMountRollForward pins a mount's heap allocations per inode it
// recovers, on an image whose 32 post-checkpoint partial writes each rewrite
// the same 16 directories and add a file to each. Roll-forward decodes each
// inode block into one slice of values and installs one mInode per
// recovered inum, overwriting it in place when a later incarnation comes;
// the rest is the repair pass and the closing commit. Measured 2.01 per
// inode (4.91 while every incarnation was its own heap Inode wrapped in a
// fresh mInode); the bound is that plus 10 %.
func TestAllocsMountRollForward(t *testing.T) {
	const maxPerInode = 2.21
	img := sharedDirsImage(t, ledgerOptions, 32768, 16, 32, 1)
	img.mount(t, nil) // warm what outlives a mount
	d := disk.FromSnapshot(img.snap)
	c := measureRecovery(d, func() {
		if _, err := Mount(d, img.opts); err != nil {
			t.Fatal(err)
		}
	})
	n := tailInums(t, img)
	per := float64(c.mallocs) / float64(n)
	t.Logf("%d allocations for %d recovered inodes: %.2f per inode", c.mallocs, n, per)
	if per > maxPerInode {
		t.Fatalf("a mount allocates %.2f times per recovered inode, want at most %.2f", per, float64(maxPerInode))
	}
}
