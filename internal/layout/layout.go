// Package layout defines the on-disk data structures of the log-structured
// file system and their binary encodings.
//
// The structures follow Table 1 of the LFS paper (Rosenblum & Ousterhout,
// SOSP 1991): superblock and checkpoint regions live at fixed disk
// addresses; inodes, inode-map blocks, indirect blocks, segment-summary
// blocks, segment-usage-table blocks and directory-operation-log blocks all
// live in the log. There is neither a free-block bitmap nor a free list.
//
// All integers are little-endian. Every structure that roll-forward or
// mount must trust carries a CRC-32 checksum so that torn writes are
// detected rather than silently believed.
package layout

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
)

// BlockSize is the file system block size in bytes (4 KB, as in Sprite LFS).
const BlockSize = 4096

// Magic numbers distinguishing block types on disk.
const (
	MagicSuper      uint32 = 0x4c465331 // "LFS1"
	MagicCheckpoint uint32 = 0x4c465343 // "LFSC"
	MagicSummary    uint32 = 0x4c465353 // "LFSS"
	MagicInodeBlock uint32 = 0x4c465349 // "LFSI"
	MagicImapBlock  uint32 = 0x4c46534d // "LFSM"
	MagicUsageBlock uint32 = 0x4c465355 // "LFSU"
	MagicDirLog     uint32 = 0x4c465344 // "LFSD"
)

// NilAddr marks an unallocated disk address (block pointer).
const NilAddr int64 = -1

// Errors returned by decoders.
var (
	ErrBadMagic    = errors.New("layout: bad magic number")
	ErrBadChecksum = errors.New("layout: checksum mismatch")
	ErrTooLarge    = errors.New("layout: structure does not fit in a block")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// ChecksumUpdate extends a running CRC-32C with b, so callers can sum a
// logical byte string without materializing it contiguously.
func ChecksumUpdate(sum uint32, b []byte) uint32 { return crc32.Update(sum, castagnoli, b) }

// ChecksumAppendBlock returns Checksum(a‖b) given sum = Checksum(a) and
// next = Checksum(b) of one BlockSize block b, without b's bytes: the pre-
// and post-inversions cancel, leaving sum advanced over BlockSize zero bytes
// XOR next. Folding a run's per-block sums, starting from 0 (the checksum
// of nothing), yields the run's Checksum.
func ChecksumAppendBlock(sum, next uint32) uint32 {
	return blockShift[0][byte(sum)] ^ blockShift[1][byte(sum>>8)] ^
		blockShift[2][byte(sum>>16)] ^ blockShift[3][byte(sum>>24)] ^ next
}

// blockShift[k][v] is a raw CRC-32C register holding v in byte k (and zero
// elsewhere) advanced over BlockSize zero bytes. The advance is linear over
// GF(2), so it is built from the advances of the 32 one-bit registers, and
// the four lookups of a register's bytes XOR to its advance.
var blockShift = func() (t [4][256]uint32) {
	var zero [BlockSize]byte
	var bit [32]uint32
	for i := range bit {
		// Update inverts the register on the way in and out.
		bit[i] = ^crc32.Update(^(uint32(1) << i), castagnoli, zero[:])
	}
	for k := range t {
		for v := 1; v < 256; v++ {
			t[k][v] = t[k][v&(v-1)] ^ bit[8*k+bits.TrailingZeros(uint(v))]
		}
	}
	return t
}()

// -------------------------------------------------------------------------
// Superblock
// -------------------------------------------------------------------------

// Superblock holds the static file system configuration. It lives at block
// 0 and is written once at format time (Table 1: "fixed" location).
type Superblock struct {
	Version          uint32
	BlockSize        uint32
	SegmentBlocks    uint32 // blocks per segment
	NumSegments      uint32
	SegmentBase      int64    // first block of the segment area
	CheckpointAddr   [2]int64 // the two alternating checkpoint regions
	CheckpointBlocks uint32   // blocks per checkpoint region
	MaxInodes        uint32
}

const superEncSize = 4 + 4 + 4 + 4 + 4 + 8 + 8 + 8 + 4 + 4 + 4 // incl. magic & crc

// Encode serializes the superblock into a block-sized buffer.
func (sb *Superblock) Encode() []byte {
	buf := make([]byte, BlockSize)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], MagicSuper)
	le.PutUint32(buf[4:], sb.Version)
	le.PutUint32(buf[8:], sb.BlockSize)
	le.PutUint32(buf[12:], sb.SegmentBlocks)
	le.PutUint32(buf[16:], sb.NumSegments)
	le.PutUint64(buf[20:], uint64(sb.SegmentBase))
	le.PutUint64(buf[28:], uint64(sb.CheckpointAddr[0]))
	le.PutUint64(buf[36:], uint64(sb.CheckpointAddr[1]))
	le.PutUint32(buf[44:], sb.CheckpointBlocks)
	le.PutUint32(buf[48:], sb.MaxInodes)
	le.PutUint32(buf[52:], Checksum(buf[:52]))
	return buf
}

// DecodeSuperblock parses a superblock from a raw block.
func DecodeSuperblock(buf []byte) (*Superblock, error) {
	if len(buf) < superEncSize {
		return nil, fmt.Errorf("layout: superblock buffer too short (%d)", len(buf))
	}
	le := binary.LittleEndian
	if le.Uint32(buf[0:]) != MagicSuper {
		return nil, fmt.Errorf("%w: superblock", ErrBadMagic)
	}
	if le.Uint32(buf[52:]) != Checksum(buf[:52]) {
		return nil, fmt.Errorf("%w: superblock", ErrBadChecksum)
	}
	sb := &Superblock{
		Version:          le.Uint32(buf[4:]),
		BlockSize:        le.Uint32(buf[8:]),
		SegmentBlocks:    le.Uint32(buf[12:]),
		NumSegments:      le.Uint32(buf[16:]),
		SegmentBase:      int64(le.Uint64(buf[20:])),
		CheckpointBlocks: le.Uint32(buf[44:]),
		MaxInodes:        le.Uint32(buf[48:]),
	}
	sb.CheckpointAddr[0] = int64(le.Uint64(buf[28:]))
	sb.CheckpointAddr[1] = int64(le.Uint64(buf[36:]))
	return sb, nil
}

// -------------------------------------------------------------------------
// Inodes
// -------------------------------------------------------------------------

// File types stored in an inode.
const (
	FileTypeRegular uint8 = 1
	FileTypeDir     uint8 = 2
)

// NumDirect is the number of direct block pointers per inode (Section 3.1:
// "the disk addresses of the first ten blocks of the file").
const NumDirect = 10

// PointersPerBlock is the number of block addresses held by one indirect
// block (4 KB of 8-byte pointers).
const PointersPerBlock = BlockSize / 8

// Inode holds a file's attributes and block map, exactly the Unix FFS
// scheme reused by Sprite LFS (Section 3.1): ten direct pointers plus
// single and double indirect pointers.
type Inode struct {
	Inum     uint32
	Version  uint32 // incremented on delete / truncate-to-zero (Section 3.3)
	Type     uint8
	Nlink    uint16
	Size     uint64
	Mtime    uint64
	Atime    uint64
	Direct   [NumDirect]int64
	Indirect int64
	DIndir   int64
}

// InodeSize is the fixed encoded size of an inode.
const InodeSize = 192

// InodesPerBlock is how many inodes fit in one packed inode block.
const InodesPerBlock = (BlockSize - inodeBlockHeader) / InodeSize

const inodeBlockHeader = 16 // magic, count, crc, pad

// NewInode returns an inode with all block pointers nil.
func NewInode(inum uint32, typ uint8) *Inode {
	ino := &Inode{Inum: inum, Type: typ, Nlink: 1}
	for i := range ino.Direct {
		ino.Direct[i] = NilAddr
	}
	ino.Indirect = NilAddr
	ino.DIndir = NilAddr
	return ino
}

// MaxFileBlocks is the largest block index addressable by the inode block
// map (direct + single indirect + double indirect).
const MaxFileBlocks = NumDirect + PointersPerBlock + PointersPerBlock*PointersPerBlock

// EncodeTo writes the inode into buf, which must be at least InodeSize long.
func (ino *Inode) EncodeTo(buf []byte) {
	le := binary.LittleEndian
	le.PutUint32(buf[0:], ino.Inum)
	le.PutUint32(buf[4:], ino.Version)
	buf[8] = ino.Type
	le.PutUint16(buf[9:], ino.Nlink)
	le.PutUint64(buf[11:], ino.Size)
	le.PutUint64(buf[19:], ino.Mtime)
	le.PutUint64(buf[27:], ino.Atime)
	off := 35
	for _, a := range ino.Direct {
		le.PutUint64(buf[off:], uint64(a))
		off += 8
	}
	le.PutUint64(buf[off:], uint64(ino.Indirect))
	le.PutUint64(buf[off+8:], uint64(ino.DIndir))
}

// DecodeInode parses an inode from buf (at least InodeSize bytes).
func DecodeInode(buf []byte) *Inode {
	le := binary.LittleEndian
	ino := &Inode{
		Inum:    le.Uint32(buf[0:]),
		Version: le.Uint32(buf[4:]),
		Type:    buf[8],
		Nlink:   le.Uint16(buf[9:]),
		Size:    le.Uint64(buf[11:]),
		Mtime:   le.Uint64(buf[19:]),
		Atime:   le.Uint64(buf[27:]),
	}
	off := 35
	for i := range ino.Direct {
		ino.Direct[i] = int64(le.Uint64(buf[off:]))
		off += 8
	}
	ino.Indirect = int64(le.Uint64(buf[off:]))
	ino.DIndir = int64(le.Uint64(buf[off+8:]))
	return ino
}

// EncodeInodeBlock packs up to InodesPerBlock inodes into one block.
func EncodeInodeBlock(inodes []*Inode) ([]byte, error) {
	if len(inodes) > InodesPerBlock {
		return nil, fmt.Errorf("%w: %d inodes per block (max %d)", ErrTooLarge, len(inodes), InodesPerBlock)
	}
	buf := make([]byte, BlockSize)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], MagicInodeBlock)
	le.PutUint16(buf[4:], uint16(len(inodes)))
	for i, ino := range inodes {
		ino.EncodeTo(buf[inodeBlockHeader+i*InodeSize:])
	}
	le.PutUint32(buf[8:], Checksum(buf[inodeBlockHeader:]))
	return buf, nil
}

// InodeBlock is a packed inode block whose magic, inode count and
// checksum have been verified, read in place: a caller that wants only
// some of the inodes (the cleaner keeps those the inode map still points
// at) reads each slot's inum from the buffer and decodes just those slots.
// It is a view of the buffer handed to OpenInodeBlock, not a copy.
type InodeBlock struct {
	buf []byte
	n   int
}

// OpenInodeBlock verifies a packed inode block and returns a view of it.
func OpenInodeBlock(buf []byte) (InodeBlock, error) {
	le := binary.LittleEndian
	if le.Uint32(buf[0:]) != MagicInodeBlock {
		return InodeBlock{}, fmt.Errorf("%w: inode block", ErrBadMagic)
	}
	n := int(le.Uint16(buf[4:]))
	if n > InodesPerBlock {
		return InodeBlock{}, fmt.Errorf("layout: inode block claims %d inodes", n)
	}
	if le.Uint32(buf[8:]) != Checksum(buf[inodeBlockHeader:]) {
		return InodeBlock{}, fmt.Errorf("%w: inode block", ErrBadChecksum)
	}
	return InodeBlock{buf: buf, n: n}, nil
}

// Inum returns the inode number stored in slot without decoding the
// inode; ok is false when the block has no such slot.
func (b InodeBlock) Inum(slot int) (inum uint32, ok bool) {
	if slot < 0 || slot >= b.n {
		return 0, false
	}
	return binary.LittleEndian.Uint32(b.buf[inodeBlockHeader+slot*InodeSize:]), true
}

// Inode decodes the inode in slot into a fresh value (decoded inodes
// outlive the block: they are handed to the inode cache), or returns nil
// when the block has no such slot.
func (b InodeBlock) Inode(slot int) *Inode {
	if slot < 0 || slot >= b.n {
		return nil
	}
	return DecodeInode(b.buf[inodeBlockHeader+slot*InodeSize:])
}

// DecodeInodeBlock unpacks every inode of a packed inode block.
func DecodeInodeBlock(buf []byte) ([]*Inode, error) {
	b, err := OpenInodeBlock(buf)
	if err != nil {
		return nil, err
	}
	inodes := make([]*Inode, b.n)
	for i := range inodes {
		inodes[i] = b.Inode(i)
	}
	return inodes, nil
}

// EncodeIndirectBlock serializes a block of disk addresses.
func EncodeIndirectBlock(ptrs []int64) ([]byte, error) {
	if len(ptrs) > PointersPerBlock {
		return nil, ErrTooLarge
	}
	buf := make([]byte, BlockSize)
	le := binary.LittleEndian
	for i, p := range ptrs {
		le.PutUint64(buf[i*8:], uint64(p))
	}
	nilAddr := NilAddr
	for i := len(ptrs); i < PointersPerBlock; i++ {
		le.PutUint64(buf[i*8:], uint64(nilAddr))
	}
	return buf, nil
}

// DecodeIndirectBlock parses a block of disk addresses.
func DecodeIndirectBlock(buf []byte) []int64 {
	le := binary.LittleEndian
	out := make([]int64, PointersPerBlock)
	for i := range out {
		out[i] = int64(le.Uint64(buf[i*8:]))
	}
	return out
}
