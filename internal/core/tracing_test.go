package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// TestReadCoalescingPopulatesCache covers the read-path fix: with a read
// cache configured, a cold sequential read must still coalesce contiguous
// blocks into multi-block device requests, and the coalesced read must
// populate the cache so a re-read never touches the disk.
func TestReadCoalescingPopulatesCache(t *testing.T) {
	opts := testOptions()
	opts.ReadCacheBlocks = 256
	fs, d := newTestFS(t, 4096, opts)

	const nblocks = 64
	data := make([]byte, nblocks*layout.BlockSize)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := fs.WriteFile("/big", data); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// The log writer left every block it wrote in the cache, which would
	// serve the read below without a request; empty it so the read is cold.
	fs.rc.reset()

	before := d.Stats()
	got, err := fs.ReadFile("/big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cold read returned wrong content")
	}
	after := d.Stats()
	ops := after.ReadOps - before.ReadOps
	blocks := after.BlocksRead - before.BlocksRead
	if blocks < nblocks {
		t.Fatalf("cold read moved %d blocks, want >= %d", blocks, nblocks)
	}
	// Sequentially written files are packed contiguously in the log, so
	// the 64 data blocks must arrive in a handful of large requests, not
	// one request per block.
	if ops > 10 {
		t.Fatalf("cold read of %d blocks took %d requests; coalescing is not happening", nblocks, ops)
	}
	if blocks <= ops {
		t.Fatalf("no multi-block request issued (%d requests for %d blocks)", ops, blocks)
	}

	// The coalesced read populated the cache: a re-read is free.
	before = d.Stats()
	got, err = fs.ReadFile("/big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cached read returned wrong content")
	}
	after = d.Stats()
	if n := after.ReadOps - before.ReadOps; n != 0 {
		t.Fatalf("re-read issued %d disk requests, want 0 (cache should serve it)", n)
	}
}

// TestReadDiskBlockNotAliasedByPool extends the PR 1 aliasing
// regression (readDiskBlock returning the cache's backing slice, which
// callers then mutated) into the freelist era. readDiskBlock now hands
// out read-only views that may be cache storage; the invariant under
// test is the reverse direction of the old bug: a buffer that has been
// visible to a reader is never returned to the pool, so no amount of
// pooled write/read/cleaner churn may scribble on it — even after the
// cache evicts or invalidates its address.
func TestReadDiskBlockNotAliasedByPool(t *testing.T) {
	opts := testOptions()
	opts.ReadCacheBlocks = 4 // tiny: the churn below evicts addr quickly
	fs, _ := newTestFS(t, 2048, opts)

	content := bytes.Repeat([]byte("aliasing"), layout.BlockSize/8)
	if err := fs.WriteFile("/f", content); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	inum, err := fs.resolve("/f")
	if err != nil {
		t.Fatal(err)
	}
	mi, err := fs.loadInode(inum)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := fs.blockAddr(mi, 0)
	if err != nil {
		t.Fatal(err)
	}

	first, err := fs.readDiskBlock(addr) // miss: the cache takes this buffer
	if err != nil {
		t.Fatal(err)
	}
	snap := append([]byte(nil), first...)

	// Pool churn: every overwrite cycles block buffers through dcache →
	// staged → freelist → next Get, and the interleaved reads push addr
	// out of the 4-block cache. If eviction fed the buffer back to the
	// pool, one of these writers would overwrite first in place.
	other := bytes.Repeat([]byte{0x5a}, 2*layout.BlockSize)
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("/churn%d", i%8)
		if err := fs.WriteFile(name, other); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.ReadFile(name); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(first, snap) {
		t.Fatal("slice returned by readDiskBlock was recycled and overwritten by pooled writers")
	}
	if got, err := fs.ReadFile("/f"); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("file content changed under pool churn: %v", err)
	}
}

// churn fills the file system with files and overwrites them so dead
// blocks accumulate and the cleaner has work to do.
func churn(t *testing.T, fs *FS, files, rounds int) {
	t.Helper()
	blob := make([]byte, 8*layout.BlockSize)
	for r := 0; r < rounds; r++ {
		for i := 0; i < files; i++ {
			for j := range blob {
				blob[j] = byte(r + i + j)
			}
			if err := fs.WriteFile(fmt.Sprintf("/f%d", i), blob); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestCleanerDecisionTrace checks the cleaner's candidate events against
// the selection policy: every event's score must match its own (u, age)
// under the policy it names, and the chosen set must account exactly for
// the segments the cleaner went on to clean.
func TestCleanerDecisionTrace(t *testing.T) {
	for _, policy := range []CleaningPolicy{PolicyCostBenefit, PolicyGreedy} {
		t.Run(policy.String(), func(t *testing.T) {
			ring := obs.NewRingSink(1 << 18)
			opts := testOptions()
			opts.Policy = policy
			opts.Tracer = obs.New(ring)
			fs, _ := newTestFS(t, 2048, opts)

			churn(t, fs, 30, 6)
			if err := fs.Clean(); err != nil {
				t.Fatal(err)
			}
			st := fs.Stats()
			if st.SegmentsCleaned == 0 {
				t.Fatal("workload never triggered cleaning")
			}
			if ring.Dropped() != 0 {
				t.Fatalf("ring dropped %d events; grow the sink", ring.Dropped())
			}

			var chosen, passes, passSegs int64
			candidates := 0
			for _, e := range ring.Events() {
				switch e.Kind {
				case obs.KindCleanerCandidate:
					c := e.Candidate
					candidates++
					var want float64
					switch c.Policy {
					case PolicyGreedy.String():
						want = 1 - c.U
					case PolicyCostBenefit.String():
						want = (1 - c.U) * c.Age / (1 + c.U)
					default:
						t.Fatalf("candidate event names unknown policy %q", c.Policy)
					}
					if diff := c.Score - want; diff > 1e-12 || diff < -1e-12 {
						t.Fatalf("seg %d: event score %g, policy %s computes %g from u=%g age=%g",
							c.Seg, c.Score, c.Policy, want, c.U, c.Age)
					}
					if c.U < 0 || c.U > 1 {
						t.Fatalf("seg %d: utilization %g out of range", c.Seg, c.U)
					}
					if c.Chosen {
						chosen++
					}
				case obs.KindCleanerPass:
					passes++
					passSegs += int64(e.Pass.SegmentsIn)
					if e.Pass.WriteCost < 1 {
						t.Fatalf("pass reports write cost %g < 1", e.Pass.WriteCost)
					}
				}
			}
			if candidates == 0 {
				t.Fatal("no candidate events emitted")
			}
			if chosen != st.SegmentsCleaned {
				t.Fatalf("%d candidates chosen in trace, but %d segments cleaned", chosen, st.SegmentsCleaned)
			}
			if passes != st.CleaningPasses {
				t.Fatalf("%d pass events, stats say %d passes", passes, st.CleaningPasses)
			}
			if passSegs != st.SegmentsCleaned {
				t.Fatalf("pass events cover %d segments, stats say %d", passSegs, st.SegmentsCleaned)
			}

			mustCheck(t, fs)
		})
	}
}

// TestOpLatencyHistograms checks that public operations record latency
// samples in simulated disk time.
func TestOpLatencyHistograms(t *testing.T) {
	opts := testOptions()
	opts.Tracer = obs.New(nil)
	fs, _ := newTestFS(t, 2048, opts)

	churn(t, fs, 4, 1)
	if _, err := fs.ReadFile("/f0"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/f3"); err != nil {
		t.Fatal(err)
	}
	m := fs.Metrics()
	for _, name := range []string{"op.write", "op.read", "op.delete"} {
		h, ok := m.Histograms[name]
		if !ok || h.Count == 0 {
			t.Fatalf("no latency samples recorded for %s", name)
		}
	}
	if h := m.Histograms["op.write"]; h.Sum <= 0 {
		t.Fatal("op.write latencies sum to zero simulated time; clock not wired")
	}
}

// crashedImage returns a snapshot of a file system that checkpointed,
// kept writing and was cut off: mounting it rolls forward, and it holds
// enough dead data for salvage to have choices to make.
func crashedImage(t *testing.T) *disk.Snapshot {
	t.Helper()
	opts := testOptions()
	fs, d := newTestFS(t, 8192, opts)
	for round := 0; round < 3; round++ {
		for i := 0; i < 40; i++ {
			name := fmt.Sprintf("/f%02d", i)
			if err := fs.WriteFile(name, content(name, round, 1+i%3)); err != nil {
				t.Fatal(err)
			}
		}
		if round == 1 {
			if err := fs.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	return d.Snapshot()
}

// TestTraceCoversWholeMount pins the tracer being attached before the
// first device request of Mount and SalvageImage — the superblock and
// checkpoint-region reads included: with nothing but Options.Tracer set,
// the disk.io events must add up to the device's own Stats, field by
// field — and so must the recovery's phase counters, which say where in
// the recovery each request was made.
func TestTraceCoversWholeMount(t *testing.T) {
	snap := crashedImage(t)
	open := map[string]func(*disk.Disk, Options) (*FS, error){
		"Mount": Mount,
		"SalvageImage": func(d *disk.Disk, o Options) (*FS, error) {
			fs, _, err := SalvageImage(d, o)
			return fs, err
		},
	}
	phases := map[string][]string{
		"Mount":        {"fs.recovery.", "cpload", "rollforward", "dirops", "usage", "commit"},
		"SalvageImage": {"fs.salvage.", "scan", "accept", "rebuild", "commit"},
	}
	for name, openFS := range open {
		t.Run(name, func(t *testing.T) {
			ring := obs.NewRingSink(1 << 16)
			d := disk.FromSnapshot(snap)
			fs, err := openFS(d, Options{Tracer: obs.New(ring)})
			if err != nil {
				t.Fatal(err)
			}
			if ring.Dropped() != 0 {
				t.Fatalf("ring dropped %d events; grow the sink", ring.Dropped())
			}
			var traced disk.Stats
			for _, e := range ring.Events() {
				if e.Kind != obs.KindDiskIO {
					continue
				}
				io := e.Disk
				if io.Op == "read" {
					traced.ReadOps++
					traced.BlocksRead += int64(io.Blocks)
				} else {
					traced.WriteOps++
					traced.BlocksWritten += int64(io.Blocks)
				}
				if !io.Sequential {
					traced.Seeks++
				}
				traced.SeekTime += io.Seek
				traced.RotationTime += io.Rotation
				traced.TransferTime += io.Transfer
				traced.BusyTime += io.Seek + io.Rotation + io.Transfer
			}
			if got := d.Stats(); traced != got {
				t.Fatalf("disk.io events add up to %+v,\ndevice stats are       %+v", traced, got)
			}
			m := fs.Metrics()
			var reads, blocks, simUS int64
			prefix := phases[name][0]
			for _, phase := range phases[name][1:] {
				if _, ok := m.Counters[prefix+phase+".reads"]; !ok {
					t.Errorf("no %s%s.reads counter", prefix, phase)
				}
				reads += m.Counter(prefix + phase + ".reads")
				blocks += m.Counter(prefix + phase + ".blocks")
				simUS += m.Counter(prefix + phase + ".sim_us")
			}
			if reads != traced.ReadOps || blocks != traced.BlocksRead {
				t.Errorf("the phases account for %d reads of %d blocks, the device did %d of %d", reads, blocks, traced.ReadOps, traced.BlocksRead)
			}
			// Each phase truncates its time to a whole microsecond.
			if busy := traced.BusyTime.Microseconds(); simUS > busy || simUS < busy-int64(len(phases[name])) {
				t.Errorf("the phases account for %d us of simulated time, the device was busy %d us", simUS, busy)
			}
		})
	}
}

// TestRecoveryDeviceRequestsDeterministic pins recovery issuing the same
// device requests in the same order every time: two mounts, and two
// salvages, of one image must leave bit-identical device statistics,
// simulated busy time included. (Usage recomputation used to visit its
// segments in Go map order, so mounts of one image differed in seek time.)
func TestRecoveryDeviceRequestsDeterministic(t *testing.T) {
	snap := crashedImage(t)
	for name, run := range map[string]func(*disk.Disk) error{
		"Mount": func(d *disk.Disk) error {
			_, err := Mount(d, testOptions())
			return err
		},
		"SalvageImage": func(d *disk.Disk) error {
			_, _, err := SalvageImage(d, testOptions())
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			var first disk.Stats
			for i := 0; i < 8; i++ {
				d := disk.FromSnapshot(snap)
				if err := run(d); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					first = d.Stats()
					if first.ReadOps == 0 || first.WriteOps == 0 {
						t.Fatalf("recovery did no I/O: %+v", first)
					}
				} else if got := d.Stats(); got != first {
					t.Fatalf("run %d: device stats %+v,\nfirst run             %+v", i, got, first)
				}
			}
		})
	}
}

// TestMetricNames pins the names Metrics() reports after a traced format,
// write, sync, clean, checkpoint, crash, remount, read and remove: a counter
// or histogram that appears or disappears is a visible change to what
// operators read. What core.Stats and disk.Stats count is stored there
// alone, so none of the names the tracer once mirrored them under may
// come back.
func TestMetricNames(t *testing.T) {
	opts := testOptions()
	opts.Tracer = obs.New(obs.NewRingSink(1 << 10))
	fs, d := newTestFS(t, 2048, opts)
	churn(t, fs, 30, 6)
	if err := fs.Clean(); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().SegmentsCleaned == 0 {
		t.Fatal("workload never triggered cleaning")
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/tail", []byte("after the checkpoint")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	d.Reopen()
	fs, err := Mount(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	if _, err := fs.ReadFile("/tail"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/f0"); err != nil {
		t.Fatal(err)
	}

	m := fs.Metrics()
	var names []string
	for n := range m.Counters {
		names = append(names, n)
	}
	for n := range m.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	want := []string{
		"fs.commit.flush", "fs.readers.active", "fs.readers.peak",
		"fs.recovery.commit.blocks", "fs.recovery.commit.reads", "fs.recovery.commit.sim_us",
		"fs.recovery.cpload.blocks", "fs.recovery.cpload.reads", "fs.recovery.cpload.sim_us",
		"fs.recovery.dirops.blocks", "fs.recovery.dirops.reads", "fs.recovery.dirops.sim_us",
		"fs.recovery.rollforward.blocks", "fs.recovery.rollforward.reads", "fs.recovery.rollforward.sim_us",
		"fs.recovery.usage.blocks", "fs.recovery.usage.reads", "fs.recovery.usage.sim_us",
		"log.walk.end.decode", "log.walk.end.segment-full",
		"media.quarantined.segments", "media.verified.blocks",
		"op.delete", "op.read", "op.write",
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("Metrics() names\n%q,\nwant\n%q", names, want)
	}
	for _, gone := range []string{
		"log.writes", "log.bytes.summary", "log.bytes.data", "log.bytes.inode",
		"cleaner.read.bytes", "cleaner.write.bytes", "cleaner.segments", "cleaner.passes", "cleaner.kicks",
		"checkpoints", "recovery.rollforward.writes", "fs.writer.stalls",
		"fs.admit.ops", "fs.admit.waits", "fs.commit.groups", "fs.commit.syncs", "fs.commit.syncs.max",
		"fs.nv.absorbed.syncs", "fs.nv.kicks", "fs.nv.backpressure.flushes",
		"disk.read.ops", "disk.write.ops", "disk.read.blocks", "disk.write.blocks",
	} {
		if _, ok := m.Counters[gone]; ok {
			t.Errorf("Metrics() counts %s, which Stats already stores", gone)
		}
	}
}
