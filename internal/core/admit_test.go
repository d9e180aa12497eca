package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/layout"
)

// TestOptionsCopyIsIsolated pins the Options() contract: the returned
// value is a copy, so mutating it (even wildly) must not affect the
// mounted file system, and a second call must still report the mounted
// configuration. Tracer and NVRAM are intentionally shared handles and
// are not part of this isolation claim.
func TestOptionsCopyIsIsolated(t *testing.T) {
	fs, _ := newTestFS(t, 2048, testOptions())
	orig := fs.Options()

	o := fs.Options()
	o.SegmentBlocks = 1
	o.MaxInodes = 1
	o.CleanLowWater = 9999
	o.CleanHighWater = 0
	o.CleanBatch = 0
	o.Policy = PolicyGreedy
	o.WriteBufferBlocks = 1
	o.ReadCacheBlocks = -5

	// The file system must be completely unaffected by the mutations.
	payload := bytes.Repeat([]byte("opt"), layout.BlockSize)
	for i := 0; i < 20; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/o%d", i), payload); err != nil {
			t.Fatalf("write after Options mutation: %v", err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, fs)
	got := fs.Options()
	if got.SegmentBlocks != orig.SegmentBlocks || got.MaxInodes != orig.MaxInodes ||
		got.CleanLowWater != orig.CleanLowWater || got.CleanHighWater != orig.CleanHighWater ||
		got.CleanBatch != orig.CleanBatch || got.Policy != orig.Policy ||
		got.WriteBufferBlocks != orig.WriteBufferBlocks ||
		got.ReadCacheBlocks != orig.ReadCacheBlocks {
		t.Fatalf("Options changed after mutating a returned copy:\n got %+v\nwant %+v", got, orig)
	}
}

// TestAdmitGateBlocksUnderPressure shrinks the admission gate far below
// one operation's staging footprint, so every operation after the first
// must wait at the gate, drain the staged backlog inline, and proceed.
// Deterministic even single-threaded: the gate condition reads the
// staged estimate left by the previous operation.
func TestAdmitGateBlocksUnderPressure(t *testing.T) {
	fs, _ := newTestFS(t, 2048, testOptions())
	fs.gate = newAdmitGate(4) // every writeBudget clamps to 2

	payload := bytes.Repeat([]byte("g"), 8*layout.BlockSize)
	for i := 0; i < 10; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/f%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	st := fs.Stats()
	if st.AdmitOps == 0 {
		t.Fatal("no operations counted through the admission gate")
	}
	if st.AdmitWaits == 0 {
		t.Fatal("no admission waits despite a gate smaller than one op's staging footprint")
	}
	if fs.flushedSeq.Load() == 0 {
		t.Fatal("gate pressure never drained the staged backlog")
	}
	mustCheck(t, fs)
}

// TestGroupCommitAmortizesSyncs parks K commit requests behind a held
// fs.mu so they pile up in front of the committer — in its queue or in
// the batch it has already drained and is blocked on fs.mu with — then
// releases the lock: however the K split into batches, they must be
// served with a single log flush (requests the first flush already
// covers ride along for free).
func TestGroupCommitAmortizesSyncs(t *testing.T) {
	fs, _ := newTestFS(t, 2048, testOptions())
	if err := fs.WriteFile("/f", bytes.Repeat([]byte("s"), layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	want := fs.stageSeq.Load()
	if fs.flushedSeq.Load() >= want {
		t.Fatal("nothing staged; the sync batch would be a no-op")
	}

	const K = 8
	fs.mu.Lock() // the committer cannot flush while we hold this
	errc := make(chan error, K)
	for i := 0; i < K; i++ {
		go func() { errc <- fs.requestCommit(want) }()
	}
	for fs.commit.parked() < K {
		time.Sleep(100 * time.Microsecond)
	}
	g0 := fs.stats.GroupCommits
	fs.mu.Unlock()

	for i := 0; i < K; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("parked sync %d: %v", i, err)
		}
	}
	st := fs.Stats()
	if got := st.GroupCommits - g0; got != 1 {
		t.Errorf("%d group flushes served %d parked syncs, want exactly 1", got, K)
	}
	if st.GroupCommitSyncs != K {
		t.Errorf("GroupCommitSyncs = %d, want %d", st.GroupCommitSyncs, K)
	}
	if fs.flushedSeq.Load() < want {
		t.Error("batch reported success but flushedSeq does not cover it")
	}
	mustCheck(t, fs)
}

// TestWriteAtFlushFailureReportsStagedBytes pins the WriteAt error-path
// contract: when the buffer-full flush inside the operation fails, the
// returned count still reports every byte staged in the file cache —
// the bytes a later flush (on a healthier device) would make durable —
// and recovery after the crash restores the pre-operation state.
func TestWriteAtFlushFailureReportsStagedBytes(t *testing.T) {
	opts := testOptions()
	opts.WriteBufferBlocks = 8
	fs, d := newTestFS(t, 2048, opts)
	if err := fs.WriteFile("/f", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	d.FailAfterWrites(0) // the very next device write is the crash
	data := bytes.Repeat([]byte("N"), 16*layout.BlockSize)
	n, err := fs.WriteAt("/f", 0, data)
	if err == nil {
		t.Fatal("WriteAt succeeded on a crashed device")
	}
	if n != len(data) {
		t.Fatalf("WriteAt returned %d with a failed flush; %d bytes were staged before the flush", n, len(data))
	}
	if !d.Crashed() {
		t.Fatal("device did not record the injected crash")
	}
	// The failed flush tore the staging state (the batch was placed but
	// never written), so the file system must degrade rather than let a
	// later flush claim durability for it.
	if !fs.Degraded() {
		t.Fatal("file system did not degrade after a mid-flush device failure")
	}
	if err := fs.Sync(); err == nil {
		t.Fatal("Sync succeeded on a crashed device")
	}

	d.Reopen()
	fs2, err := Mount(d, opts)
	if err != nil {
		t.Fatalf("recovery mount: %v", err)
	}
	defer fs2.Unmount()
	got, err := fs2.ReadFile("/f")
	if err != nil || !bytes.Equal(got, []byte("old")) {
		t.Fatalf("recovered /f = %q, %v; want pre-crash content", got, err)
	}
	mustCheck(t, fs2)
}

// TestCreateFlushFailureAfterDirOpDegrades pins the half-applied-dirop
// regression: a flush failure inside createNode, after the directory-op
// record was logged, leaves in-memory state that no longer matches what
// a replayed log would reconstruct. The operation must trip degraded
// mode (sticky, read-only) rather than let a later flush persist the
// torn state; remounting the crashed image recovers the pre-op state.
func TestCreateFlushFailureAfterDirOpDegrades(t *testing.T) {
	opts := testOptions()
	opts.WriteBufferBlocks = 4
	fs, d := newTestFS(t, 2048, opts)
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	// Stage three dirty blocks so the directory block createNode stages
	// via saveDir is the one that fills the buffer and triggers the
	// (failing) flush — after logDirOp has recorded the create.
	if _, err := fs.WriteAt("/f", 0, bytes.Repeat([]byte("x"), 3*layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	d.FailAfterWrites(0)
	err := fs.Create("/g")
	if err == nil {
		t.Fatal("Create succeeded although its buffer-full flush failed")
	}
	if !fs.Degraded() {
		t.Fatalf("Create failed after logging its dirop (%v) but the file system did not degrade", err)
	}
	if err := fs.Create("/h"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("mutation on a degraded file system = %v, want ErrDegraded", err)
	}

	d.Reopen()
	fs2, err := Mount(d, opts)
	if err != nil {
		t.Fatalf("recovery mount: %v", err)
	}
	defer fs2.Unmount()
	if _, err := fs2.Stat("/g"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("half-applied create of /g survived recovery: %v", err)
	}
	if _, err := fs2.Stat("/f"); err != nil {
		t.Fatalf("pre-crash file lost: %v", err)
	}
	mustCheck(t, fs2)
}

// TestConcurrentWritersMixedOps is the parallel-write-path stress test:
// several writer goroutines mix Create/WriteFile/Rename/Remove/Sync in
// disjoint namespaces on a disk small enough that the epilogues clean.
// Under -race this exercises the admission gate, the group committer, and
// the cleaner against each other; the content checks and the consistency
// sweep make it a correctness test, and the remount proves the epochs
// the writers synced were really durable. The subtest keeps the name it
// had beside a background-cleaner variant; the cleaner now always runs
// inline, in the mutators' epilogues.
func TestConcurrentWritersMixedOps(t *testing.T) {
	t.Run("bgclean=false", concurrentWritersMixedOps)
}

func concurrentWritersMixedOps(t *testing.T) {
	opts := testOptions()
	fs, d := newTestFS(t, 768, opts)

	const W = 6
	const rounds = 25
	states := make([]map[string][]byte, W)
	errc := make(chan error, W)
	var wg sync.WaitGroup
	for w := 0; w < W; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(77*w + 1)))
			files := map[string][]byte{}
			defer func() { states[w] = files }()
			fail := func(format string, args ...any) {
				errc <- fmt.Errorf("writer %d: %s", w, fmt.Sprintf(format, args...))
			}
			for r := 0; r < rounds; r++ {
				for i := 0; i < 4; i++ {
					name := fmt.Sprintf("/w%d-f%d", w, i)
					c := bytes.Repeat([]byte{byte('a' + w), byte(r)}, (1+rng.Intn(3))*layout.BlockSize/2)
					if err := fs.WriteFile(name, c); err != nil {
						fail("round %d: write %s: %v", r, name, err)
						return
					}
					files[name] = c
				}
				empty := fmt.Sprintf("/w%d-e%d", w, r%2)
				if err := fs.Create(empty); err != nil && !errors.Is(err, ErrExists) {
					fail("round %d: create %s: %v", r, empty, err)
					return
				}
				files[empty] = nil
				old := fmt.Sprintf("/w%d-f%d", w, rng.Intn(4))
				renamed := fmt.Sprintf("/w%d-r%d", w, r%3)
				if err := fs.Rename(old, renamed); err != nil {
					fail("round %d: rename %s -> %s: %v", r, old, renamed, err)
					return
				}
				files[renamed] = files[old]
				delete(files, old)
				if r%3 == 0 {
					victim := fmt.Sprintf("/w%d-r%d", w, rng.Intn(3))
					err := fs.Remove(victim)
					if err == nil {
						delete(files, victim)
					} else if !errors.Is(err, ErrNotFound) {
						fail("round %d: remove %s: %v", r, victim, err)
						return
					}
				}
				if r%5 == w%5 {
					if err := fs.Sync(); err != nil {
						fail("round %d: sync: %v", r, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	verify := func(f *FS, when string) {
		t.Helper()
		for w := 0; w < W; w++ {
			for name, want := range states[w] {
				got, err := f.ReadFile(name)
				if err != nil {
					t.Fatalf("%s: %s: %v", when, name, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: %s: content mismatch (len=%d want %d)", when, name, len(got), len(want))
				}
			}
		}
	}
	verify(fs, "before unmount")
	st := fs.Stats()
	if st.AdmitOps == 0 {
		t.Error("no operations passed the admission gate")
	}
	if st.CleaningPasses == 0 {
		t.Error("the workload never reached the cleaner")
	}
	mustCheck(t, fs)
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}

	fs2, err := Mount(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Unmount()
	verify(fs2, "after remount")
}

// TestUnmountJoinsInflightWriters races Unmount against a pack of
// writers: every in-flight operation either completes (and is covered by
// the final checkpoint) or fails with ErrUnmounted — never a hang on the
// closed admission gate or the stopped committer, and never a torn
// on-disk state.
func TestUnmountJoinsInflightWriters(t *testing.T) {
	opts := testOptions()
	fs, d := newTestFS(t, 768, opts)

	const W = 6
	errc := make(chan error, W)
	var wg sync.WaitGroup
	for w := 0; w < W; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(w)}, layout.BlockSize)
			for i := 0; ; i++ {
				err := fs.WriteFile(fmt.Sprintf("/w%d-%d", w, i%8), payload)
				if err == nil && i%4 == 0 {
					err = fs.Sync()
				}
				if err != nil {
					if !errors.Is(err, ErrUnmounted) {
						errc <- fmt.Errorf("writer %d: %v", w, err)
					}
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	if err := fs.Unmount(); err != nil {
		t.Fatalf("Unmount with in-flight writers: %v", err)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	fs2, err := Mount(d, opts)
	if err != nil {
		t.Fatalf("remount after racing unmount: %v", err)
	}
	defer fs2.Unmount()
	mustCheck(t, fs2)
}

// The gate and the committer are plain structs: the tests below need no
// file system.

// blocksUntil starts enter in a goroutine, waits until the gate has counted
// it as a waiter, and returns the channel its result arrives on.
func blocksUntil(t *testing.T, g *admitGate, budget int) <-chan time.Duration {
	t.Helper()
	w0 := g.waits.Load()
	out := make(chan time.Duration, 1)
	go func() {
		_, waited := g.enter(budget, func() bool { t.Error("drained with nothing staged"); return false })
		out <- waited
	}()
	for g.waits.Load() == w0 {
		time.Sleep(50 * time.Microsecond)
	}
	select {
	case <-out:
		t.Fatal("enter returned although the budget does not fit")
	case <-time.After(2 * time.Millisecond):
	}
	return out
}

func TestAdmitGate(t *testing.T) {
	noDrain := func() bool { t.Error("drain called"); return false }

	t.Run("clamp", func(t *testing.T) {
		g := newAdmitGate(10)
		if r, w := g.enter(100, noDrain); r != 5 || w != 0 {
			t.Fatalf("budget 100 under a gate of 10 reserved %d after %v, want half the gate at once", r, w)
		}
		if r, _ := g.enter(0, noDrain); r != 1 {
			t.Fatalf("budget 0 reserved %d, want 1", r)
		}
		g.leave(0) // nothing reserved: the gate was not entered
		if g.open != 6 {
			t.Fatalf("open = %d, want 6", g.open)
		}
	})

	t.Run("blocks and wakes on leave", func(t *testing.T) {
		g := newAdmitGate(10)
		a, _ := g.enter(5, noDrain)
		b, _ := g.enter(5, noDrain)
		out := blocksUntil(t, g, 5)
		g.leave(a)
		if waited := <-out; waited <= 0 {
			t.Fatalf("a blocked enter reported waiting %v", waited)
		}
		g.leave(b)
		g.leave(5)
		if g.open != 0 || g.waits.Load() != 1 {
			t.Fatalf("open %d waits %d, want 0 and 1", g.open, g.waits.Load())
		}
	})

	t.Run("failed opens, flushed shuts, close stays open", func(t *testing.T) {
		g := newAdmitGate(4)
		g.enter(2, noDrain)
		g.enter(2, noDrain)
		out := blocksUntil(t, g, 2)
		g.failed(errors.New("flush failed"))
		<-out // the parked admitter passes through
		if _, w := g.enter(2, noDrain); w != 0 {
			t.Fatal("gate not open while a flush failure is noted")
		}
		g.leave(2)
		g.leave(2)
		g.flushed(0) // open is 4 again: the gate is full and shut
		out = blocksUntil(t, g, 2)
		g.close()
		<-out
		g.flushed(0)
		if _, w := g.enter(2, noDrain); w != 0 {
			t.Fatal("a flush shut a closed gate again")
		}
	})

	t.Run("drain", func(t *testing.T) {
		g := newAdmitGate(4)
		g.staged.Store(10)
		calls := 0
		r, w := g.enter(2, func() bool { calls++; g.flushed(0); return true })
		if r != 2 || w <= 0 || calls != 1 || g.waits.Load() != 1 {
			t.Fatalf("reserved %d after %v and %d drains (%d waits), want 2 after one drain", r, w, calls, g.waits.Load())
		}
		// A drain that cannot flush ends the wait: the operation goes on
		// to observe the failure under fs.mu.
		g.staged.Store(10)
		calls = 0
		if r, w := g.enter(2, func() bool { calls++; return false }); r != 2 || w <= 0 || calls != 1 {
			t.Fatalf("reserved %d after %v and %d drains, want 2 after one failed drain", r, w, calls)
		}
	})
}

// serveLog is a committer serve function that records its calls, answers
// every syncer nil, and blocks while hold is non-nil and open.
type serveLog struct {
	mu      sync.Mutex
	wants   []uint64
	syncers []int
	entered chan struct{} // one send per call, before it blocks
	hold    chan struct{}
}

func (l *serveLog) serve(want uint64, syncers []commitReq) {
	l.mu.Lock()
	l.wants, l.syncers = append(l.wants, want), append(l.syncers, len(syncers))
	l.mu.Unlock()
	l.entered <- struct{}{}
	<-l.hold
	for _, r := range syncers {
		r.done <- nil
	}
}

func TestCommitter(t *testing.T) {
	// park starts n waits and returns once the committer holds them all.
	park := func(c *committer, n int, want uint64, errc chan<- error) {
		before := c.parked()
		for i := 0; i < n; i++ {
			go func(i int) {
				err, ok := c.wait(want + uint64(i))
				if err == nil && !ok {
					err = errors.New("wait reported a stopped committer")
				}
				errc <- err
			}(i)
		}
		for c.parked() < before+n {
			time.Sleep(50 * time.Microsecond)
		}
	}

	t.Run("parked waits share one serve", func(t *testing.T) {
		c, l := newCommitter(), &serveLog{entered: make(chan struct{}, 4), hold: make(chan struct{})}
		if _, ok := c.wait(1); ok {
			t.Fatal("a committer that was never started took a request")
		}
		c.start(l.serve)
		errc := make(chan error, 8)
		park(c, 1, 1, errc) // occupies the loop in a blocked serve
		<-l.entered
		park(c, 6, 10, errc)
		close(l.hold)
		for i := 0; i < 7; i++ {
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		}
		c.stop()
		if len(l.wants) != 2 || l.syncers[1] != 6 || l.wants[1] != 15 {
			t.Fatalf("serve calls: wants %v syncers %v, want the six parked waits in one call for epoch 15", l.wants, l.syncers)
		}
	})

	t.Run("stop serves what was queued", func(t *testing.T) {
		c, l := newCommitter(), &serveLog{entered: make(chan struct{}, 4), hold: make(chan struct{})}
		c.start(l.serve)
		errc := make(chan error, 8)
		park(c, 1, 1, errc)
		<-l.entered
		park(c, 3, 2, errc)
		stopped := make(chan struct{})
		go func() { c.stop(); close(stopped) }()
		select {
		case <-stopped:
			t.Fatal("stop returned while a batch was being served")
		case <-time.After(2 * time.Millisecond):
		}
		close(l.hold)
		<-stopped
		for i := 0; i < 4; i++ {
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := c.wait(9); ok || c.parked() != 0 {
			t.Fatal("a stopped committer took a request")
		}
		c.stop() // a second stop does not hang
	})
}
