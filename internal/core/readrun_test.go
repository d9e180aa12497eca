package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
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
	opts.NoGroupCommit = true
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
			if err := fs.Sync(); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

func sharedDirsImage(tb testing.TB, opts Options, nblocks int64, ndirs, nwrites, perDir int) *logImage {
	tb.Helper()
	return buildLogImage(tb, opts, nblocks, false, sharedDirsScript(tb, ndirs, nwrites, perDir))
}

// benchmarkScript is the shape of the repository benchmark's recovery image:
// n files spread over ndirs directories, a checkpoint, as many files again,
// one Sync.
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
		if err := fs.Sync(); err != nil {
			tb.Fatal(err)
		}
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
	opts.NoGroupCommit = true
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

// blockAtATimeSalvage is the reference TestFaultInsideRun compares salvage
// with: the same scavenger, but its scan fetches every described block with
// a request of its own through readRetry — what the product did before it
// read partial writes in runs. It is a reference, not a product path.
func blockAtATimeSalvage(t *testing.T, d *disk.Disk, opts Options) (*FS, *SalvageReport) {
	t.Helper()
	fs, _, _ := openImage(d, opts)
	if fs == nil {
		t.Fatal("reference salvage: superblock unreadable")
	}
	fs.mounted = true
	fs.salvageReset()
	rep := &SalvageReport{}
	sc := newSalvScan()
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
			for i, e := range s.Entries {
				addr := w.DataAddr() + int64(i)
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
				sc.intact[addr] = s.WriteSeq
				fs.sums.record(addr, s.Entries[i:i+1])
				switch e.Kind {
				case layout.KindIndirect:
					sc.ptrs[addr] = layout.DecodeIndirectBlock(blk)
				case layout.KindInode:
					inos, err := layout.DecodeInodeBlock(blk)
					if err != nil {
						break
					}
					for slot, ino := range inos {
						if ino.Inum < RootInum || ino.Inum >= uint32(fs.imap.maxInodes()) {
							continue
						}
						sc.cands[ino.Inum] = append(sc.cands[ino.Inum], salvCand{ino: ino, addr: addr, slot: uint16(slot), seq: s.WriteSeq})
						sc.maxVer[ino.Inum] = max(sc.maxVer[ino.Inum], ino.Version)
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
	if err := fs.salvageRebuild(sc, rep, nil); err != nil {
		t.Fatalf("reference salvage: %v", err)
	}
	return fs, rep
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
// summary describes, for roll-forward its trailing inode blocks — and
// returns the run's first, a middle and its last block, plus the summary
// after it, which rides on the same request.
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
	return []runSite{
		{"first", first},
		{"middle", first + int64(bestLen/2)},
		{"last", first + int64(bestLen) - 1},
		{"next-summary", first + int64(bestLen)},
	}
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
		all := func(layout.BlockKind) bool { return true }
		for _, site := range runSitesOf(t, writes, all) {
			for _, f := range runFaults {
				t.Run(site.name+"/"+f.name, func(t *testing.T) {
					ref, refRep := blockAtATimeSalvage(t, faultedDisk(t, img.snap, f.fault, site.addr), img.opts)
					fs, rep, err := SalvageImage(faultedDisk(t, img.snap, f.fault, site.addr), img.opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(rep, refRep) {
						t.Errorf("report %+v,\nblock at a time %+v", *rep, *refRep)
					}
					if got, want := fs.QuarantinedSegments(), ref.QuarantinedSegments(); !reflect.DeepEqual(got, want) {
						t.Errorf("quarantined %v, block at a time %v", got, want)
					}
					if diff := readableDiff(readable(fs, img.files), readable(ref, img.files)); len(diff) > 0 {
						t.Errorf("%d files are readable after one salvage and not the other, first %s", len(diff), diff[0])
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
		for _, site := range runSitesOf(t, writes, rollForwardReads) {
			for _, f := range runFaults {
				t.Run(site.name+"/"+f.name, func(t *testing.T) {
					fs, err := Mount(faultedDisk(t, img.snap, f.fault, site.addr), img.opts)
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
					case f.name == "corrupt":
						// A packed inode block checks its own CRC.
						if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("inode block at %d", site.addr)) {
							t.Fatalf("mount: %v, want the corrupt inode block at %d reported", err, site.addr)
						}
					default:
						if err != nil || !fs.Degraded() {
							t.Fatalf("mount: %v, want a degraded mount", err)
						}
						what := "inode block"
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

var ledgerOptions = Options{SegmentBlocks: 128, MaxInodes: 1 << 14, NoGroupCommit: true}

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
	tb.Helper()
	d := disk.MustNew(disk.DefaultGeometry(32768))
	fs, err := Format(d, ledgerOptions)
	if err != nil {
		tb.Fatal(err)
	}
	img := &logImage{opts: ledgerOptions, files: map[string][]byte{}}
	for i := 0; fs.segs.head < int64(nsegs); i++ {
		path := fmt.Sprintf("/s%05d", i)
		img.files[path] = content(path, 1, 8)
		if err := fs.WriteFile(path, img.files[path]); err != nil {
			tb.Fatal(err)
		}
		if i%12 == 11 {
			if err := fs.Sync(); err != nil {
				tb.Fatal(err)
			}
		}
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
	fs.salvageReset()
	return fs, d
}

// BenchmarkSalvageScan is the salvage row of the cost ledger: the full-log
// scan (every summary chain, every described block verified) of an image
// with N written segments of 256.
func BenchmarkSalvageScan(b *testing.B) {
	for _, n := range []int{16, 128} {
		b.Run(fmt.Sprintf("segments=%d", n), func(b *testing.B) {
			img := writtenSegmentsImage(b, n)
			var total recoveryCost
			for i := 0; i < b.N; i++ {
				fs, d := salvageScanOf(b, img)
				total.add(measureRecovery(d, func() { fs.salvageScan(&SalvageReport{}) }))
			}
			reportRecovery(b, total)
		})
	}
}

// TestAllocsSalvageScan pins the heap allocations of a warm salvage scan
// per block it verifies. The blocks themselves arrive in the scan's one
// run buffer, a partial write at a time (a fresh 4 KB buffer for every
// block put the figure above 1 before anything was decoded); what is left
// is what the scan keeps — per file a decoded inode and a candidate list,
// per directory-log block three allocations whatever its records
// (DecodeDirOpLog), plus the growth of its maps — measured at 0.58 on this
// image of 8-block files (0.81 while a dirlog block cost two per record);
// the bound is that plus 10 %.
func TestAllocsSalvageScan(t *testing.T) {
	const maxPerBlock = 0.64
	img := writtenSegmentsImage(t, 16)
	fs, d := salvageScanOf(t, img)
	fs.salvageScan(&SalvageReport{}) // warm: the walk scratch
	fs.salvageReset()
	rep := &SalvageReport{}
	c := measureRecovery(d, func() { fs.salvageScan(rep) })
	if rep.BlocksVerified < 1000 || rep.BlocksDropped != 0 {
		t.Fatalf("scan verified %d blocks and dropped %d; the image should hold well over 1000 intact ones", rep.BlocksVerified, rep.BlocksDropped)
	}
	per := float64(c.mallocs) / float64(rep.BlocksVerified)
	t.Logf("%d allocations for %d verified blocks: %.2f per block", c.mallocs, rep.BlocksVerified, per)
	if per > maxPerBlock {
		t.Fatalf("warm salvage scan allocates %.2f times per verified block, want at most %.2f", per, float64(maxPerBlock))
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
// (ROADMAP 3(c)): a segment whose first summary slot fails its magic or
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
