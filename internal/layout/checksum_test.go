package layout

import (
	"bytes"
	"math/rand"
	"testing"
)

// foldBlocks builds n blocks — all-zero, all-0xff, or pattern tiled from a
// per-block offset, as two bits of kinds say for each — and returns their
// concatenation and the fold of their per-block checksums.
func foldBlocks(pattern []byte, n int, kinds uint64) (all []byte, fold uint32) {
	for i := 0; i < n; i++ {
		blk := make([]byte, BlockSize)
		switch kinds >> (2 * (i % 32)) & 3 {
		case 0:
		case 1:
			for j := range blk {
				blk[j] = 0xff
			}
		default:
			for j := range blk {
				if len(pattern) > 0 {
					blk[j] = pattern[(i+j)%len(pattern)] ^ byte(i)
				}
			}
		}
		all = append(all, blk...)
		fold = ChecksumAppendBlock(fold, Checksum(blk))
	}
	return all, fold
}

// TestChecksumAppendBlock: the fold of per-block sums over 1–64 blocks
// equals Checksum of the concatenation, for runs of zero, 0xff and random
// blocks in every mix; and folding onto the empty string's sum (0) is the
// identity.
func TestChecksumAppendBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pattern := make([]byte, 1000)
	rng.Read(pattern)
	for n := 1; n <= 64; n++ {
		for _, kinds := range []uint64{0, 0x5555555555555555, 0xaaaaaaaaaaaaaaaa, rng.Uint64()} {
			all, fold := foldBlocks(pattern, n, kinds)
			if want := Checksum(all); fold != want {
				t.Fatalf("%d blocks, kinds %#x: fold %08x, Checksum %08x", n, kinds, fold, want)
			}
		}
	}
	for _, sum := range []uint32{0, 1, 0xffffffff, rng.Uint32()} {
		if got := ChecksumAppendBlock(0, sum); got != sum {
			t.Fatalf("ChecksumAppendBlock(0, %08x) = %08x", sum, got)
		}
	}
}

// FuzzChecksumAppendBlock checks the fold against Checksum of the
// concatenation for arbitrary block contents and mixes. The checked-in
// corpus (testdata/fuzz) seeds 64 zero blocks, 64 0xff blocks and a mix.
func FuzzChecksumAppendBlock(f *testing.F) {
	f.Fuzz(func(t *testing.T, pattern []byte, nblocks uint8, kinds uint64) {
		n := 1 + int(nblocks)%64
		all, fold := foldBlocks(pattern, n, kinds)
		if want := Checksum(all); fold != want {
			t.Fatalf("%d blocks, kinds %#x: fold %08x, Checksum %08x", n, kinds, fold, want)
		}
	})
}

var sinkSum uint32

// BenchmarkChecksumAppendBlock prices one block's share of a partial
// write's DataChecksum: "fold" extends the running sum from the block's
// entry sum, "crc" runs the block's bytes through the CRC again — the
// writer's second pass before it folded.
func BenchmarkChecksumAppendBlock(b *testing.B) {
	blk := bytes.Repeat([]byte("lfs!"), BlockSize/4)
	next := Checksum(blk)
	b.Run("fold", func(b *testing.B) {
		var sum uint32
		for i := 0; i < b.N; i++ {
			sum = ChecksumAppendBlock(sum, next)
		}
		sinkSum = sum
	})
	b.Run("crc", func(b *testing.B) {
		b.SetBytes(BlockSize)
		var sum uint32
		for i := 0; i < b.N; i++ {
			sum = ChecksumUpdate(sum, blk)
		}
		sinkSum = sum
	})
}
