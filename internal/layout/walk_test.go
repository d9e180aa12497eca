package layout

import (
	"errors"
	"math"
	"testing"
)

const walkSegBlocks = 16

// walkImage is a hand-built run of segments starting at block address
// walkBase; put writes one summary block into it.
const walkBase = 100

type walkImage []byte

func newWalkImage(segs int) walkImage {
	return make(walkImage, segs*walkSegBlocks*BlockSize)
}

func (img walkImage) put(t *testing.T, seg, off int, seq uint64, entries int, nextSeg int64) {
	t.Helper()
	s := &Summary{WriteSeq: seq, NextSeg: nextSeg, Entries: make([]SummaryEntry, entries)}
	for i := range s.Entries {
		s.Entries[i] = SummaryEntry{Kind: KindData, Inum: 2, BlockNo: uint32(i)}
	}
	blk, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	copy(img[(seg*walkSegBlocks+off)*BlockSize:], blk)
}

var errWalkMedia = errors.New("injected media error")

// failAt wraps the image source so that reading address bad fails.
func (img walkImage) failAt(bad int64) BlockSource {
	src := ImageSource(walkBase, img)
	return func(addr int64) ([]byte, error) {
		if addr == bad {
			return nil, errWalkMedia
		}
		return src(addr)
	}
}

// recording wraps a source so that a test sees which addresses a walk asks
// it for.
func recording(src BlockSource, asked *[]int64) BlockSource {
	return func(addr int64) ([]byte, error) {
		*asked = append(*asked, addr)
		return src(addr)
	}
}

// nextAsPromised is w.Next(), checked against what w.Ahead() said it would
// read: exactly that address, or nothing at all. A caller that reads ahead
// on Ahead's word must never read a block the walk itself would not have.
func nextAsPromised(t *testing.T, w interface {
	Ahead() (int64, bool)
	Next() bool
}, asked *[]int64) bool {
	t.Helper()
	ahead, ok := w.Ahead()
	n := len(*asked)
	more := w.Next()
	switch got := (*asked)[n:]; {
	case ok && (len(got) != 1 || got[0] != ahead):
		t.Fatalf("Ahead promised a read of %d, Next asked for %v", ahead, got)
	case !ok && len(got) != 0:
		t.Fatalf("Ahead promised no read, Next asked for %v", got)
	}
	return more
}

func TestSegWalkerEndReasons(t *testing.T) {
	cases := []struct {
		name    string
		build   func(t *testing.T, img walkImage)
		failAt  int64 // address whose read fails; 0 for none
		walked  int
		endOff  int64
		end     WalkEnd
		wantErr error
	}{
		{
			name:   "decode failure at never-written space",
			build:  func(t *testing.T, img walkImage) { img.put(t, 0, 0, 1, 3, 1) },
			walked: 1, endOff: 4, end: EndDecode,
		},
		{
			name:  "clean segment",
			build: func(t *testing.T, img walkImage) {},
			end:   EndDecode,
		},
		{
			name: "seq regression: stale tail of a reused segment",
			build: func(t *testing.T, img walkImage) {
				img.put(t, 0, 0, 10, 2, 1)
				img.put(t, 0, 3, 11, 2, 1)
				img.put(t, 0, 6, 5, 2, 1) // survivor of the previous life
			},
			walked: 2, endOff: 6, end: EndSeqRegress,
		},
		{
			name: "seq repeat counts as regression",
			build: func(t *testing.T, img walkImage) {
				img.put(t, 0, 0, 10, 2, 1)
				img.put(t, 0, 3, 10, 2, 1)
			},
			walked: 1, endOff: 3, end: EndSeqRegress,
		},
		{
			name: "entry count escaping the segment",
			build: func(t *testing.T, img walkImage) {
				img.put(t, 0, 0, 1, 9, 1)
				img.put(t, 0, 10, 2, 6, 1) // 10+1+6 = 17 > 16
			},
			walked: 1, endOff: 10, end: EndOverrun,
		},
		{
			name:  "zero entries",
			build: func(t *testing.T, img walkImage) { img.put(t, 0, 0, 1, 0, 1) },
			end:   EndEmpty,
		},
		{
			name: "media error on a summary",
			build: func(t *testing.T, img walkImage) {
				img.put(t, 0, 0, 1, 2, 1)
				img.put(t, 0, 3, 2, 2, 1)
			},
			failAt: walkBase + 3,
			walked: 1, endOff: 3, end: EndMedia, wantErr: errWalkMedia,
		},
		{
			name: "segment full",
			build: func(t *testing.T, img walkImage) {
				img.put(t, 0, 0, 1, 6, 1)
				img.put(t, 0, 7, 2, 7, 1) // ends at 15: no room for summary + block
			},
			walked: 2, endOff: 15, end: EndSegmentFull,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := newWalkImage(1)
			tc.build(t, img)
			src := ImageSource(walkBase, img)
			if tc.failAt != 0 {
				src = img.failAt(tc.failAt)
			}
			s := NewWalkScratch()
			var asked []int64
			w := WalkSegment(recording(src, &asked), walkBase, walkSegBlocks, s)
			walked := 0
			var lastSeq uint64
			for nextAsPromised(t, &w, &asked) {
				walked++
				if walked > 1 && s.WriteSeq <= lastSeq {
					t.Fatalf("walker yielded WriteSeq %d after %d", s.WriteSeq, lastSeq)
				}
				lastSeq = s.WriteSeq
				if w.DataAddr() != walkBase+w.Off()+1 {
					t.Fatalf("DataAddr %d at offset %d", w.DataAddr(), w.Off())
				}
			}
			end, err := w.End()
			if walked != tc.walked || w.Off() != tc.endOff || end != tc.end || err != tc.wantErr {
				t.Fatalf("walked %d to offset %d, end %v (%v); want %d to %d, end %v (%v)",
					walked, w.Off(), end, err, tc.walked, tc.endOff, tc.end, tc.wantErr)
			}
			if nextAsPromised(t, &w, &asked) {
				t.Fatal("Next reported true after the walk ended")
			}
		})
	}
}

func TestThreadWalkerEndReasons(t *testing.T) {
	// A thread that starts mid-segment 0 at WriteSeq 5, fills the segment,
	// and continues into segment 2 (segment 1 is skipped: NextSeg decides).
	build := func(t *testing.T) walkImage {
		img := newWalkImage(3)
		img.put(t, 0, 0, 4, 3, 2) // before the checkpoint
		img.put(t, 0, 4, 5, 4, 2)
		img.put(t, 0, 9, 6, 6, 2) // ends at 16: segment full
		img.put(t, 2, 0, 7, 2, 1)
		img.put(t, 2, 3, 8, 2, 1)
		return img
	}
	start := LogPos{Seg: 0, Off: 4, NextSeg: 2, WriteSeq: 5}
	cases := []struct {
		name    string
		mutate  func(t *testing.T, img walkImage)
		failAt  int64
		bound   uint64
		walked  int
		endPos  LogPos
		end     WalkEnd
		wantErr error
	}{
		{
			name:  "chain crossing segments via NextSeg, ending at a decode failure",
			bound: math.MaxUint64, walked: 4,
			endPos: LogPos{Seg: 2, Off: 6, NextSeg: 1, WriteSeq: 9}, end: EndDecode,
		},
		{
			name:   "seq != expected on the thread",
			mutate: func(t *testing.T, img walkImage) { img.put(t, 2, 3, 9, 2, 1) },
			bound:  math.MaxUint64, walked: 3,
			endPos: LogPos{Seg: 2, Off: 3, NextSeg: 1, WriteSeq: 8}, end: EndSeqMismatch,
		},
		{
			name:   "NextSeg == NilAddr",
			mutate: func(t *testing.T, img walkImage) { img.put(t, 0, 9, 6, 6, NilAddr) },
			bound:  math.MaxUint64, walked: 2,
			endPos: LogPos{Seg: 0, Off: 16, NextSeg: NilAddr, WriteSeq: 7}, end: EndNoNextSeg,
		},
		{
			name:  "the seq bound reached, after the hop",
			bound: 7, walked: 2,
			endPos: LogPos{Seg: 2, Off: 0, NextSeg: 2, WriteSeq: 7}, end: EndSeqBound,
		},
		{
			name:  "a bound that admits nothing",
			bound: 5, walked: 0, endPos: start, end: EndSeqBound,
		},
		{
			name:   "media error on a summary",
			failAt: walkBase + 2*walkSegBlocks,
			bound:  math.MaxUint64, walked: 2,
			endPos: LogPos{Seg: 2, Off: 0, NextSeg: 2, WriteSeq: 7}, end: EndMedia, wantErr: errWalkMedia,
		},
		{
			name:   "entry count escaping the segment",
			mutate: func(t *testing.T, img walkImage) { img.put(t, 0, 9, 6, 7, 2) },
			bound:  math.MaxUint64, walked: 1,
			endPos: LogPos{Seg: 0, Off: 9, NextSeg: 2, WriteSeq: 6}, end: EndOverrun,
		},
		{
			name:   "zero entries",
			mutate: func(t *testing.T, img walkImage) { img.put(t, 2, 0, 7, 0, 1) },
			bound:  math.MaxUint64, walked: 2,
			endPos: LogPos{Seg: 2, Off: 0, NextSeg: 2, WriteSeq: 7}, end: EndEmpty,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := build(t)
			if tc.mutate != nil {
				tc.mutate(t, img)
			}
			src := ImageSource(walkBase, img)
			if tc.failAt != 0 {
				src = img.failAt(tc.failAt)
			}
			s := NewWalkScratch()
			var asked []int64
			w := WalkThread(recording(src, &asked), walkBase, walkSegBlocks, start, tc.bound, s)
			walked := 0
			for nextAsPromised(t, &w, &asked) {
				pos := w.Pos()
				if s.WriteSeq != pos.WriteSeq {
					t.Fatalf("yielded WriteSeq %d at position %+v", s.WriteSeq, pos)
				}
				if want := walkBase + pos.Seg*walkSegBlocks + pos.Off + 1; w.DataAddr() != want {
					t.Fatalf("DataAddr %d at %+v, want %d", w.DataAddr(), pos, want)
				}
				walked++
			}
			end, err := w.End()
			if walked != tc.walked || w.Pos() != tc.endPos || end != tc.end || err != tc.wantErr {
				t.Fatalf("walked %d to %+v, end %v (%v); want %d to %+v, end %v (%v)",
					walked, w.Pos(), end, err, tc.walked, tc.endPos, tc.end, tc.wantErr)
			}
		})
	}

	// A caller that abandons a summary half-applied (roll-forward at an
	// unreadable inode block) must find Pos still in front of it.
	t.Run("abandoned summary is not stepped over", func(t *testing.T) {
		s := NewWalkScratch()
		w := WalkThread(ImageSource(walkBase, build(t)), walkBase, walkSegBlocks, start, math.MaxUint64, s)
		for w.Next() {
			if s.WriteSeq == 6 {
				break
			}
		}
		want := LogPos{Seg: 0, Off: 9, NextSeg: 2, WriteSeq: 6}
		if end, _ := w.End(); w.Pos() != want || end != WalkOpen {
			t.Fatalf("abandoned at %+v with end %v, want %+v with end %v", w.Pos(), end, want, WalkOpen)
		}
	})
}

func TestWalkEndNames(t *testing.T) {
	seen := map[string]bool{}
	for e := WalkEnd(0); e < NumWalkEnds; e++ {
		name := e.String()
		if name == "" || seen[name] {
			t.Fatalf("end reason %d has empty or duplicate name %q", e, name)
		}
		seen[name] = true
	}
}

// TestWalkAllocs pins the walk at zero allocations over a pooled scratch:
// the drivers are plain structs, the image source's closure stays on the
// stack, and the decode failure that ends a chain is a prebuilt error.
func TestWalkAllocs(t *testing.T) {
	img := newWalkImage(2)
	img.put(t, 0, 0, 1, MaxSummaryEntries/20, 1)
	img.put(t, 0, 9, 2, 6, 1)
	img.put(t, 1, 0, 3, 4, NilAddr)
	s := NewWalkScratch()
	walked := 0
	walk := func() {
		w := WalkSegment(ImageSource(walkBase, img), walkBase, walkSegBlocks, s)
		for w.Next() {
			walked++
		}
		tw := WalkThread(ImageSource(walkBase, img), walkBase, walkSegBlocks, LogPos{NextSeg: 1, WriteSeq: 1}, math.MaxUint64, s)
		for tw.Next() {
			walked++
		}
	}
	if avg := testing.AllocsPerRun(100, walk); avg != 0 {
		t.Fatalf("warm walk allocates %.2f times per run, want 0", avg)
	}
	if walked == 0 || walked%5 != 0 {
		t.Fatalf("each run should walk 2 + 3 summaries, walked %d in total", walked)
	}
}
