package layout

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The decoders guard every length and count they read, so arbitrary block
// contents must produce an error or a harmless value — never a panic or
// an out-of-bounds access. These properties are what let roll-forward and
// the cleaner walk raw disk blocks safely.

func randomBlock(rng *rand.Rand) []byte {
	buf := make([]byte, BlockSize)
	rng.Read(buf)
	return buf
}

func TestQuickDecodersNeverPanicOnRandomBlocks(t *testing.T) {
	f := func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("seed %d: decoder panicked: %v", seed, r)
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		buf := randomBlock(rng)
		_, _ = DecodeSuperblock(buf)
		_, _ = DecodeSummary(buf)
		_, _ = DecodeInodeBlock(buf)
		_, _, _ = DecodeImapBlock(buf)
		_, _, _ = DecodeSegUsageBlock(buf)
		_, _ = DecodeDirOpLog(buf)
		_, _ = DecodeDirectory(buf[:rng.Intn(len(buf))])
		_ = DecodeIndirectBlock(buf)
		_ = DecodeInode(buf)
		_, _ = DecodeCheckpoint(buf)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Valid structures with a few flipped bytes must decode to an error or to
// *something*, but never panic; flipped bytes inside the checksummed
// region must be detected.
func TestQuickBitflipsDetectedOrRejected(t *testing.T) {
	f := func(seed int64, pos uint16, bit uint8) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("seed %d: panic on bitflip: %v", seed, r)
				ok = false
			}
		}()
		s := &Summary{
			WriteSeq: uint64(seed),
			NextSeg:  3,
			Entries:  []SummaryEntry{{Kind: KindData, Inum: 7, Version: 1, BlockNo: 9, Age: 4}},
		}
		blk, err := s.Encode()
		if err != nil {
			return false
		}
		p := int(pos) % BlockSize
		blk[p] ^= 1 << (bit % 8)
		dec, err := DecodeSummary(blk)
		if err != nil {
			return true // corruption detected
		}
		// The flip landed outside any meaningful field only if the result
		// still matches; flips inside the checksummed region [4:] must
		// have been detected above, so reaching here means the flip hit
		// the magic-adjacent padding or was self-cancelling — accept, but
		// the decoded structure must still be internally consistent.
		return len(dec.Entries) <= MaxSummaryEntries
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Truncated buffers (shorter than a block) must never crash the directory
// and dirlog parsers, which handle variable-length records.
func TestQuickVariableLengthParsersOnTruncation(t *testing.T) {
	ops := []DirOp{
		{Seq: 1, Op: DirOpCreate, Dir: 1, Name: "some-name", Inum: 5, Version: 1, NewNlink: 1},
		{Seq: 2, Op: DirOpRename, Dir: 1, Name: "a", Inum: 5, Version: 1, Dir2: 2, Name2: "b"},
	}
	blk, _, err := EncodeDirOpLog(ops)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := EncodeDirectory([]DirEntry{{Inum: 3, Name: "entry-name"}, {Inum: 9, Name: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	f := func(cut uint16) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on truncation: %v", r)
				ok = false
			}
		}()
		c := int(cut) % len(blk)
		corrupted := append([]byte(nil), blk[:c]...)
		corrupted = append(corrupted, make([]byte, len(blk)-c)...)
		_, _ = DecodeDirOpLog(corrupted)
		_, _ = DecodeDirectory(dir[:int(cut)%len(dir)])
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
