package layout

import (
	"encoding/binary"
	"fmt"
)

// ImapEntry is one inode-map entry (Section 3.1): the current location of
// an inode in the log plus the file's version number and last access time.
// An inode lives at slot Slot of the packed inode block at disk address
// Addr; Addr == NilAddr means the inum is unallocated.
type ImapEntry struct {
	Addr    int64
	Slot    uint16
	Version uint32
	Atime   uint64
}

// Allocated reports whether the entry refers to a live inode.
func (e ImapEntry) Allocated() bool { return e.Addr != NilAddr }

const imapEntrySize = 8 + 2 + 4 + 8 // 22
const imapBlockHeader = 16          // magic, first inum, count, crc

// ImapEntriesPerBlock is the number of inode-map entries per map block.
const ImapEntriesPerBlock = (BlockSize - imapBlockHeader) / imapEntrySize

// EncodeImapBlock serializes one inode-map block covering inums
// [firstInum, firstInum+len(entries)) into buf, every byte of the block.
func EncodeImapBlock(buf []byte, firstInum uint32, entries []ImapEntry) error {
	if len(entries) > ImapEntriesPerBlock {
		return fmt.Errorf("%w: %d imap entries per block (max %d)", ErrTooLarge, len(entries), ImapEntriesPerBlock)
	}
	buf = buf[:BlockSize]
	clear(buf)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], MagicImapBlock)
	le.PutUint32(buf[4:], firstInum)
	le.PutUint16(buf[8:], uint16(len(entries)))
	off := imapBlockHeader
	for _, e := range entries {
		le.PutUint64(buf[off:], uint64(e.Addr))
		le.PutUint16(buf[off+8:], e.Slot)
		le.PutUint32(buf[off+10:], e.Version)
		le.PutUint64(buf[off+14:], e.Atime)
		off += imapEntrySize
	}
	le.PutUint32(buf[12:], Checksum(buf[imapBlockHeader:]))
	return nil
}

// DecodeImapBlock parses an inode-map block, returning the first inum it
// covers and its entries.
func DecodeImapBlock(buf []byte) (firstInum uint32, entries []ImapEntry, err error) {
	le := binary.LittleEndian
	if le.Uint32(buf[0:]) != MagicImapBlock {
		return 0, nil, fmt.Errorf("%w: imap block", ErrBadMagic)
	}
	n := int(le.Uint16(buf[8:]))
	if n > ImapEntriesPerBlock {
		return 0, nil, fmt.Errorf("layout: imap block claims %d entries", n)
	}
	if le.Uint32(buf[12:]) != Checksum(buf[imapBlockHeader:]) {
		return 0, nil, fmt.Errorf("%w: imap block", ErrBadChecksum)
	}
	firstInum = le.Uint32(buf[4:])
	entries = make([]ImapEntry, n)
	off := imapBlockHeader
	for i := range entries {
		entries[i] = ImapEntry{
			Addr:    int64(le.Uint64(buf[off:])),
			Slot:    le.Uint16(buf[off+8:]),
			Version: le.Uint32(buf[off+10:]),
			Atime:   le.Uint64(buf[off+14:]),
		}
		off += imapEntrySize
	}
	return firstInum, entries, nil
}

// SegUsage is one segment-usage-table entry (Section 3.6): the number of
// live bytes still in the segment and the most recent modified time of any
// block in it. These drive the cost-benefit cleaning policy.
type SegUsage struct {
	LiveBytes uint32
	LastWrite uint64
	Flags     uint8
}

// Segment usage flags.
const (
	SegFlagDirty  uint8 = 1 << 0 // segment holds log data
	SegFlagActive uint8 = 1 << 1 // segment is the current log head
)

const segUsageEntrySize = 4 + 8 + 1 // 13
const segUsageBlockHeader = 16      // magic, first segment, count, crc

// SegUsagePerBlock is the number of usage entries per usage-table block.
const SegUsagePerBlock = (BlockSize - segUsageBlockHeader) / segUsageEntrySize

// EncodeSegUsageBlock serializes one segment-usage-table block covering
// segments [firstSeg, firstSeg+len(entries)) into buf, every byte of the
// block.
func EncodeSegUsageBlock(buf []byte, firstSeg uint32, entries []SegUsage) error {
	if len(entries) > SegUsagePerBlock {
		return fmt.Errorf("%w: %d usage entries per block (max %d)", ErrTooLarge, len(entries), SegUsagePerBlock)
	}
	buf = buf[:BlockSize]
	clear(buf)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], MagicUsageBlock)
	le.PutUint32(buf[4:], firstSeg)
	le.PutUint16(buf[8:], uint16(len(entries)))
	off := segUsageBlockHeader
	for _, e := range entries {
		le.PutUint32(buf[off:], e.LiveBytes)
		le.PutUint64(buf[off+4:], e.LastWrite)
		buf[off+12] = e.Flags
		off += segUsageEntrySize
	}
	le.PutUint32(buf[12:], Checksum(buf[segUsageBlockHeader:]))
	return nil
}

// DecodeSegUsageBlock parses a segment-usage-table block.
func DecodeSegUsageBlock(buf []byte) (firstSeg uint32, entries []SegUsage, err error) {
	le := binary.LittleEndian
	if le.Uint32(buf[0:]) != MagicUsageBlock {
		return 0, nil, fmt.Errorf("%w: segment usage block", ErrBadMagic)
	}
	n := int(le.Uint16(buf[8:]))
	if n > SegUsagePerBlock {
		return 0, nil, fmt.Errorf("layout: usage block claims %d entries", n)
	}
	if le.Uint32(buf[12:]) != Checksum(buf[segUsageBlockHeader:]) {
		return 0, nil, fmt.Errorf("%w: segment usage block", ErrBadChecksum)
	}
	firstSeg = le.Uint32(buf[4:])
	entries = make([]SegUsage, n)
	off := segUsageBlockHeader
	for i := range entries {
		entries[i] = SegUsage{
			LiveBytes: le.Uint32(buf[off:]),
			LastWrite: le.Uint64(buf[off+4:]),
			Flags:     buf[off+12],
		}
		off += segUsageEntrySize
	}
	return firstSeg, entries, nil
}
