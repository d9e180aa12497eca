package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/layout"
	"repro/internal/obs"
)

// TestConcurrentReadersWritersCleaner is the locking-discipline stress
// test: four reader goroutines hammer ReadFile/Stat/ReadDir while a single
// mutator churns enough data to force the cleaner through many passes,
// each run in the mutator's epilogue under fs.mu. Run under -race this exercises every reader-path
// leaf lock (imap, inode cache, directory cache, read cache, per-inode
// indirect loads) against the cleaner and the writer. Content checks make
// it a correctness test too: readers must never observe half-staged
// state, and a final remount must recover everything.
func TestConcurrentReadersWritersCleaner(t *testing.T) {
	tr := obs.New(nil)
	opts := testOptions()
	opts.ReadCacheBlocks = 64
	opts.Tracer = tr
	fs, d := newTestFS(t, 2048, opts)

	const nfiles = 80
	const rounds = 20
	content := func(i int) []byte {
		b := make([]byte, layout.BlockSize)
		for j := range b {
			b[j] = byte(i*31 + j)
		}
		return b
	}
	stable := func(i int) string { return fmt.Sprintf("/s%02d", i) }
	for i := 0; i < nfiles; i++ {
		if err := fs.WriteFile(stable(i), content(i)); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	errc := make(chan error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				i := rng.Intn(nfiles)
				switch rng.Intn(4) {
				case 0:
					if _, err := fs.Stat(stable(i)); err != nil {
						errc <- fmt.Errorf("reader %d: stat %s: %w", r, stable(i), err)
						return
					}
				case 1:
					if _, err := fs.ReadDir("/"); err != nil {
						errc <- fmt.Errorf("reader %d: readdir /: %w", r, err)
						return
					}
				default:
					got, err := fs.ReadFile(stable(i))
					if err != nil {
						errc <- fmt.Errorf("reader %d: read %s: %w", r, stable(i), err)
						return
					}
					if want := content(i); !bytes.Equal(got, want) {
						errc <- fmt.Errorf("reader %d: %s: content mismatch (len=%d want %d)",
							r, stable(i), len(got), len(want))
						return
					}
				}
			}
		}(r)
	}

	// Single mutator: rewrite every stable file each round (same bytes, so
	// readers always know what to expect, but every round kills the
	// previous copies in the log) interleaved with a random script
	// workload judged against the in-memory model.
	model := NewModel()
	ops := Script{Seed: 42, N: 150}.Ops()
	perRound := len(ops)/rounds + 1
	oi := 0
	for r := 0; r < rounds; r++ {
		for i := 0; i < nfiles; i++ {
			if err := fs.WriteFile(stable(i), content(i)); err != nil {
				t.Fatalf("round %d: rewrite %s: %v", r, stable(i), err)
			}
		}
		for k := 0; k < perRound && oi < len(ops); k++ {
			if err := ApplyOp(fs, ops[oi]); err != nil {
				t.Fatalf("script op %d (%s): %v", oi, ops[oi], err)
			}
			model.Apply(ops[oi])
			oi++
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	if err := model.Verify(fs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nfiles; i++ {
		got, err := fs.ReadFile(stable(i))
		if err != nil || !bytes.Equal(got, content(i)) {
			t.Fatalf("%s after churn: err=%v, match=%v", stable(i), err, bytes.Equal(got, content(i)))
		}
	}
	if fs.Stats().CleaningPasses == 0 {
		t.Error("the cleaner never ran despite churn past the low-water mark")
	}
	snap := tr.Metrics()
	if snap.Counter(obs.CtrReadersPeak) < 1 {
		t.Errorf("readers peak gauge = %d, want >= 1", snap.Counter(obs.CtrReadersPeak))
	}
	mustCheck(t, fs)
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}

	// Everything must survive a remount (checkpoint + roll-forward).
	fs2, err := Mount(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Unmount()
	if err := model.Verify(fs2); err != nil {
		t.Fatalf("after remount: %v", err)
	}
	for i := 0; i < nfiles; i++ {
		got, err := fs2.ReadFile(stable(i))
		if err != nil || !bytes.Equal(got, content(i)) {
			t.Fatalf("%s after remount: err=%v, match=%v", stable(i), err, bytes.Equal(got, content(i)))
		}
	}
}

// TestCleanIdlePendingCleanBudget pins the idle-cleaning accounting fix:
// when segments evacuated by an earlier pass are still awaiting their
// releasing checkpoint, CleanIdle must count them toward its budget and
// release them with a checkpoint alone instead of cleaning new segments
// past the requested budget.
func TestCleanIdlePendingCleanBudget(t *testing.T) {
	fs, _ := newTestFS(t, 2048, testOptions())
	payload := bytes.Repeat([]byte("p"), layout.BlockSize)
	for i := 0; i < 400; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/f%02d", i%40), payload); err != nil {
			t.Fatal(err)
		}
	}
	// Manufacture banked cleaning work: run one evacuation pass by hand,
	// without the releasing checkpoint that normally follows.
	fs.mu.Lock()
	if err := fs.flushLog(); err != nil {
		fs.mu.Unlock()
		t.Fatal(err)
	}
	fs.inCleaner = true
	cands := fs.selectCandidates()
	var passErr error
	if len(cands) > 0 {
		passErr = fs.cleanPass(cands)
	}
	fs.inCleaner = false
	fs.mu.Unlock()
	if passErr != nil {
		t.Fatal(passErr)
	}
	pending := len(fs.segs.pending())
	if pending < 2 {
		t.Fatalf("workload banked only %d pending-clean segments, need >= 2", pending)
	}

	cleaned0 := fs.Stats().SegmentsCleaned
	free0 := fs.CleanSegments()
	if err := fs.CleanIdle(1); err != nil {
		t.Fatal(err)
	}
	if got := fs.Stats().SegmentsCleaned; got != cleaned0 {
		t.Fatalf("CleanIdle cleaned %d new segments although %d pending-clean segments already covered the budget",
			got-cleaned0, pending)
	}
	if left := len(fs.segs.pending()); left != 0 {
		t.Fatalf("CleanIdle left %d segments pending release", left)
	}
	if got := fs.CleanSegments(); got < free0+pending-1 {
		t.Fatalf("releasing checkpoint freed too little: %d -> %d clean segments (%d were pending)",
			free0, got, pending)
	}
	mustCheck(t, fs)
}
