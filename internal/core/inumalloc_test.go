package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/obs"
)

// TestInumHeapMatchesSortedReference drives inumHeap with random pushes and
// pops and checks every pop against a sorted reference: the heap hands out
// the lowest number it holds, and reports empty when it holds none.
func TestInumHeapMatchesSortedReference(t *testing.T) {
	for _, c := range []struct {
		name   string
		max    uint32 // numbers drawn from [0, max): small max repeats values
		pushes int    // in 10, the share of steps that push
	}{
		{"push-heavy", 1 << 20, 7},
		{"balanced", 1 << 20, 5},
		{"pop-heavy", 1 << 20, 3},
		{"duplicates", 8, 5},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.pushes) + int64(c.max)))
			var h inumHeap
			var ref []uint32
			for step := 0; step < 20000; step++ {
				if rng.Intn(10) < c.pushes {
					v := uint32(rng.Int63n(int64(c.max)))
					h.push(v)
					i, _ := slices.BinarySearch(ref, v)
					ref = slices.Insert(ref, i, v)
					continue
				}
				got, ok := h.pop()
				if len(ref) == 0 {
					if ok {
						t.Fatalf("step %d: pop of an empty heap returned %d", step, got)
					}
					continue
				}
				if !ok || got != ref[0] {
					t.Fatalf("step %d: pop = %d, %v; want %d (heap of %d)", step, got, ok, ref[0], len(ref))
				}
				ref = ref[1:]
			}
			if len(h) != len(ref) {
				t.Fatalf("heap holds %d numbers, reference %d", len(h), len(ref))
			}
		})
	}
}

// TestInumHeapAllocatesNothing pins a steady-state push and pop to zero
// allocations once the heap has grown: the sift works on the []uint32
// itself, with no interface boxing.
func TestInumHeapAllocatesNothing(t *testing.T) {
	var h inumHeap
	for i := uint32(0); i < 1024; i++ {
		h.push(1023 - i)
	}
	v := uint32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		top, _ := h.pop()
		v = (v*2654435761 + top) % 4096
		h.push(v)
	})
	if allocs != 0 {
		t.Fatalf("push+pop allocated %.1f times per run, want 0", allocs)
	}
}

// TestInumAllocationRule pins the one rule for handing out inode numbers —
// lowest free first — for a running file system and a remounted one alike.
// After files are removed in creation order, reverse order or random order,
// the next burst of creates gets ascending inums in creation order, and an
// Unmount + Mount of the image hands out the same next numbers the running
// file system would have.
func TestInumAllocationRule(t *testing.T) {
	const files, burst = 120, 40
	creation, reverse := make([]int, files), make([]int, files)
	for i := range creation {
		creation[i], reverse[i] = i, files-1-i
	}
	for _, c := range []struct {
		name  string
		order []int // the files' creation indices, in removal order
	}{
		{"creation", creation},
		{"reverse", reverse},
		{"random", rand.New(rand.NewSource(1)).Perm(files)},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs, d := newTestFS(t, 4096, testOptions())
			check := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			inumOf := func(fs *FS, path string) uint32 {
				t.Helper()
				info, err := fs.Stat(path)
				check(err)
				return info.Inum
			}
			for i := 0; i < 4; i++ {
				check(fs.Mkdir(fmt.Sprintf("/d%d", i)))
			}
			path := func(round, i int) string { return fmt.Sprintf("/d%d/r%d-%03d", i%4, round, i) }
			for i := 0; i < files; i++ {
				check(fs.WriteFile(path(0, i), []byte{byte(i)}))
			}
			check(fs.Sync())
			for _, i := range c.order {
				check(fs.Remove(path(0, i)))
			}
			check(fs.Sync())

			lowest := RootInum + 5 // root and the four directories come first
			for i := 0; i < burst; i++ {
				check(fs.WriteFile(path(1, i), []byte{byte(i)}))
				if got, want := inumOf(fs, path(1, i)), lowest+uint32(i); got != want {
					t.Fatalf("create %d of the burst got inum %d, want %d (the lowest free)", i, got, want)
				}
			}
			check(fs.Sync())

			// What the running file system would hand out next.
			next := slices.Clone(fs.freeInums)
			want := make([]uint32, burst)
			for i := range want {
				want[i], _ = next.pop()
			}
			check(fs.Unmount())
			fs2, err := Mount(d, testOptions())
			check(err)
			for i := 0; i < burst; i++ {
				check(fs2.WriteFile(path(2, i), []byte{byte(i)}))
				if got := inumOf(fs2, path(2, i)); got != want[i] {
					t.Fatalf("remounted: create %d got inum %d, the running file system would have given %d", i, got, want[i])
				}
			}
			mustCheck(t, fs2)
			check(fs2.Unmount())
		})
	}
}

// TestRecreatedFilesReadInLogOrder is the layout argument of the paper's §3
// after a delete: files created together are written together, so reading
// them back in creation order is sequential. A burst of creates that reuses
// freed inode numbers must land in the log in creation order, so an
// uncached read of every file seeks only where one partial write ends and
// the next begins, and read-ahead serves the stream in one request per
// partial write: every block read is one a file asked for, and a request
// ends only where a partial write does (the first read, which starts the
// stream, reads its file alone).
func TestRecreatedFilesReadInLogOrder(t *testing.T) {
	const dirs, files = 10, 300
	tr := obs.New(nil)
	fs, _ := newTestFS(t, 8192, Options{ReadCacheBlocks: 0, Tracer: tr})
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	path := func(i int) string { return fmt.Sprintf("/d%d/f%03d", i%dirs, i) }
	payload := make([]byte, 1024)
	create := func() {
		for i := 0; i < files; i++ {
			payload[0] = byte(i)
			check(fs.WriteFile(path(i), payload))
		}
		check(fs.Sync())
	}
	for i := 0; i < dirs; i++ {
		check(fs.Mkdir(fmt.Sprintf("/d%d", i)))
	}
	create()
	for i := 0; i < files; i++ {
		check(fs.Remove(path(i)))
	}
	check(fs.Sync())
	before := fs.Stats().PartialWrites
	create()
	partials := fs.Stats().PartialWrites - before

	ring := obs.NewRingSink(1 << 12)
	tr.SetSink(ring)
	for i := 0; i < files; i++ {
		b, err := fs.ReadFile(path(i))
		check(err)
		if len(b) != len(payload) || b[0] != byte(i) {
			t.Fatalf("%s read back %d bytes starting %d", path(i), len(b), b[0])
		}
	}
	tr.SetSink(nil)
	if ring.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; grow the sink", ring.Dropped())
	}
	var reads, blocks, seeks int64
	for _, e := range ring.Events() {
		if e.Kind == obs.KindDiskIO && e.Disk.Op == "read" {
			reads++
			blocks += int64(e.Disk.Blocks)
			if !e.Disk.Sequential {
				seeks++
			}
		}
	}
	if blocks != files {
		t.Fatalf("%d blocks read in %d requests for %d one-block files, want exactly one block a file", blocks, reads, files)
	}
	if most := partials + 1; reads > most {
		t.Fatalf("%d requests for %d files over %d partial writes, want at most %d", reads, files, partials, most)
	}
	t.Logf("%d of %d reads were not sequential; the burst took %d partial writes", seeks, reads, partials)
	if seeks > partials+1 {
		t.Fatalf("%d of %d reads were not sequential; the burst took %d partial writes, so at most %d may be",
			seeks, reads, partials, partials+1)
	}
}
