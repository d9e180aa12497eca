package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/layout"
)

// TestImageGolden pins the sha256 of the whole device after three
// deterministic scripts, so "the on-disk image is byte-identical" is a test
// rather than a claim: a change to how the writer spends host time (PR 25's
// folded DataChecksum and gather write) must leave every constant alone.
// Re-baselining one is a deliberate act — it says the change alters the
// image, and its PR says why. The constants last moved when a buffer-full
// flush began ending at a segment boundary (flushAt) and laying its dirlog
// blocks beside its inode blocks instead of in front of its data: every
// flush after a Sync or checkpoint ends at another place in the log, and
// every flush puts its blocks in another order. The cleaner copies less:
// 10 660 → 9 772 KB from the same 96 segments, and 8 020 → 7 880 KB from
// the same 192. (Before that they moved when the buffer-full check began
// counting what a flush writes rather than dirty data blocks alone, and
// when a cleaning pass began taking empty segments first.)
//
// The first three images are the same bytes: CleanRead changes what the
// cleaner reads, not which live blocks it copies or in what order.
func TestImageGolden(t *testing.T) {
	const defaultImage = "bc86bd5f71b0cfd61e9f9d13daee9a66f771bfa3ab76024c07d122e0f57dfb9b"
	cases := []struct {
		name    string
		opts    Options
		nblocks int64
		files   int
		want    string
	}{
		{"defaults", Options{}, 6400, 500, defaultImage},
		{"clean-read-live-only", Options{CleanRead: CleanReadLive}, 6400, 500, defaultImage},
		{"clean-read-whole", Options{CleanRead: CleanReadWhole}, 6400, 500, defaultImage},
		{"seg64-wb16", Options{SegmentBlocks: 64, WriteBufferBlocks: 16}, 4096, 320,
			"82c906cf4c8216db82ff2e3eadeccb0988c3409ef66c82efbaa77ef35293d51c"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := disk.MustNew(disk.DefaultGeometry(c.nblocks))
			fs, err := Format(d, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			goldenScript(t, fs, c.files)
			st := fs.Stats()
			if err := fs.Unmount(); err != nil {
				t.Fatal(err)
			}
			if st.SegmentsCleaned < 20 || st.CleanerWriteBytes == 0 {
				t.Fatalf("the script cleaned %d segments and copied %d bytes; it must exercise the cleaner's copies",
					st.SegmentsCleaned, st.CleanerWriteBytes)
			}
			h := sha256.New()
			for a := int64(0); a < c.nblocks; a++ {
				b, err := d.Peek(a)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(b)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("image sha256 %s, want %s (%d segments cleaned, %d KB copied)", got, c.want, st.SegmentsCleaned, st.CleanerWriteBytes/1024)
			}
		})
	}
}

// goldenScript creates files (1–5 blocks, some with a partial last block) in
// eight directories, then runs rounds of overwrites — nine in ten to the
// tenth of the files that are hot, whole or in part — with removes and
// re-creates mixed in and a Sync every 64 operations.
func goldenScript(t *testing.T, fs *FS, files int) {
	t.Helper()
	rng := rand.New(rand.NewSource(25))
	payload := func() []byte {
		b := make([]byte, (1+rng.Intn(5))*layout.BlockSize-rng.Intn(2)*rng.Intn(layout.BlockSize))
		rng.Read(b)
		return b
	}
	path := func(i int) string { return fmt.Sprintf("/d%d/f%04d", i%8, i) }
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		check(fs.Mkdir(fmt.Sprintf("/d%d", i)))
	}
	size := make([]int, files)
	for i := range size {
		b := payload()
		check(fs.WriteFile(path(i), b))
		size[i] = len(b)
	}
	check(fs.Sync())
	for op := 0; op < 12*files; op++ {
		i := rng.Intn(files)
		if rng.Intn(10) != 0 {
			i = rng.Intn(max(files/10, 1))
		}
		switch r := rng.Intn(20); {
		case size[i] < 0:
			b := payload()
			check(fs.WriteFile(path(i), b))
			size[i] = len(b)
		case r == 0:
			check(fs.Remove(path(i)))
			size[i] = -1
		case r < 6:
			b := make([]byte, 1+rng.Intn(2*layout.BlockSize))
			rng.Read(b)
			off := int64(rng.Intn(size[i] + 1))
			_, err := fs.WriteAt(path(i), off, b)
			check(err)
			size[i] = max(size[i], int(off)+len(b))
		default:
			b := payload()
			check(fs.WriteFile(path(i), b))
			size[i] = len(b)
		}
		if op%64 == 63 {
			check(fs.Sync())
		}
	}
}
