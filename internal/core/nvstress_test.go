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

// TestConcurrentWritersNVAbsorb is the NVRAM commit-point stress test: several
// writer goroutines mix writes, renames, removes and frequent Syncs with
// the NVRAM as the commit point, sized small enough that the run is
// forced through the full absorb lifecycle — records absorbed, and,
// since an absorbed Sync starts no flush, the hard backpressure flush of
// a full NVRAM. Under -race this exercises nvLog/nvSeq against the
// admission gate and the group committer; the content checks,
// consistency sweep and remount with the surviving NVRAM make it a
// correctness test. The subtest keeps the name it had beside a
// serialised-commit twin, since deleted.
func TestConcurrentWritersNVAbsorb(t *testing.T) {
	t.Run("nogroupcommit=false", func(t *testing.T) {
		nv := NewNVRAM(64 << 10)
		opts := testOptions()
		opts.NVRAM = nv
		fs, d := newTestFS(t, 4096, opts)

		const W = 6
		const rounds = 20
		states := make([]map[string][]byte, W)
		errc := make(chan error, W)
		var wg sync.WaitGroup
		for w := 0; w < W; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(31*w + 5)))
				files := map[string][]byte{}
				defer func() { states[w] = files }()
				fail := func(format string, args ...any) {
					errc <- fmt.Errorf("writer %d: %s", w, fmt.Sprintf(format, args...))
				}
				for r := 0; r < rounds; r++ {
					for i := 0; i < 3; i++ {
						name := fmt.Sprintf("/w%d-f%d", w, i)
						c := bytes.Repeat([]byte{byte('a' + w), byte(r)}, (1+rng.Intn(2))*layout.BlockSize/2)
						if err := fs.WriteFile(name, c); err != nil {
							fail("round %d: write %s: %v", r, name, err)
							return
						}
						files[name] = c
						// Sync after every small file: the absorbed-sync
						// workload the mode exists for.
						if err := fs.Sync(); err != nil {
							fail("round %d: sync: %v", r, err)
							return
						}
					}
					old := fmt.Sprintf("/w%d-f%d", w, rng.Intn(3))
					renamed := fmt.Sprintf("/w%d-r%d", w, r%3)
					if err := fs.Rename(old, renamed); err != nil {
						fail("round %d: rename %s -> %s: %v", r, old, renamed, err)
						return
					}
					files[renamed] = files[old]
					delete(files, old)
					if r%4 == 0 {
						victim := fmt.Sprintf("/w%d-r%d", w, rng.Intn(3))
						err := fs.Remove(victim)
						if err == nil {
							delete(files, victim)
						} else if !errors.Is(err, ErrNotFound) {
							fail("round %d: remove %s: %v", r, victim, err)
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

		st := fs.Stats()
		if st.NVAbsorbedSyncs == 0 {
			t.Error("no Sync was absorbed by the NVRAM commit point")
		}
		// Nothing drains the NVRAM behind the writers, so the hard
		// wall must have been hit: absorption happened AND
		// transitioned to inline backpressure flushes.
		if st.NVBackpressureFlushes == 0 {
			t.Error("absorb run never hit the NVRAM backpressure flush")
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
		mustCheck(t, fs)
		if err := fs.Unmount(); err != nil {
			t.Fatal(err)
		}
		if n := nv.Pending(); n != 0 {
			t.Errorf("%d NVRAM records left after a clean unmount", n)
		}

		// Remount with the surviving NVRAM attached: a clean unmount
		// left nothing to replay, and every written state is on disk.
		fs2, err := Mount(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer fs2.Unmount()
		verify(fs2, "after remount")
		mustCheck(t, fs2)
	})
}

// TestUnmountJoinsNVAsyncFlusher races Unmount against writers whose
// Syncs are absorbed by the NVRAM: an absorbed Sync returns before the
// disk catches up, so Unmount must join the committer and flush the
// absorbed tail itself — the final image must cover every epoch the
// writers were told was durable, with the NVRAM drained.
func TestUnmountJoinsNVAsyncFlusher(t *testing.T) {
	nv := NewNVRAM(256 << 10)
	opts := testOptions()
	opts.NVRAM = nv
	fs, d := newTestFS(t, 4096, opts)

	const W = 6
	errc := make(chan error, W)
	var wg sync.WaitGroup
	for w := 0; w < W; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(w)}, layout.BlockSize/2)
			for i := 0; ; i++ {
				err := fs.WriteFile(fmt.Sprintf("/w%d-%d", w, i%8), payload)
				if err == nil {
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
		t.Fatalf("Unmount with in-flight absorbed writers: %v", err)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	staged, _, disk := fs.Durability()
	if disk < staged {
		t.Fatalf("after Unmount disk epoch %d < staged %d: absorbed tail was not flushed", disk, staged)
	}
	if n := nv.Pending(); n != 0 {
		t.Errorf("%d NVRAM records left after Unmount", n)
	}

	fs2, err := Mount(d, opts)
	if err != nil {
		t.Fatalf("remount after racing unmount: %v", err)
	}
	defer fs2.Unmount()
	mustCheck(t, fs2)
}
