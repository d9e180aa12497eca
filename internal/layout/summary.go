package layout

import (
	"encoding/binary"
	"fmt"
)

// BlockKind identifies what each block of a partial-segment write holds.
// The segment summary records one entry per block (Section 3.3: "the
// summary block identifies each piece of information that is written in
// the segment").
type BlockKind uint8

// Block kinds recorded in segment summaries.
const (
	KindData     BlockKind = 1 // file data block
	KindIndirect BlockKind = 2 // single or double indirect block
	KindInode    BlockKind = 3 // packed inode block
	KindImap     BlockKind = 4 // inode map block
	KindSegUsage BlockKind = 5 // segment usage table block
	KindDirLog   BlockKind = 6 // directory operation log block
)

// String implements fmt.Stringer for diagnostics.
func (k BlockKind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindIndirect:
		return "indirect"
	case KindInode:
		return "inode"
	case KindImap:
		return "imap"
	case KindSegUsage:
		return "segusage"
	case KindDirLog:
		return "dirlog"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// SummaryEntry describes one block of a partial-segment write. For data
// and indirect blocks, Inum/Version form the uid used for the fast
// liveness check (Section 3.3) and BlockNo is the block's index within the
// file (for an indirect block, its role in the block map: RoleSingle,
// RoleDTop, RoleL2Base+i). For metadata blocks the fields identify the
// structure written.
//
// Age is the block's modified time. Sprite LFS kept a single modified
// time per file and noted that "this estimate will be incorrect for files
// that are not modified in their entirety. We plan to modify the segment
// summary information to include modified times for each block"
// (Section 3.6) — this implementation carries the per-block time the
// paper planned.
// Sum is the CRC-32C of the block's contents as written. Data and
// indirect blocks carry no self-checksum, so this is the only integrity
// record for them: verify-on-read, the cleaner, and scrub all compare
// blocks they ingest against it to detect silent media corruption.
type SummaryEntry struct {
	Kind    BlockKind
	Inum    uint32
	Version uint32
	BlockNo uint32
	Age     uint64
	Sum     uint32
}

const summaryEntrySize = 1 + 4 + 4 + 4 + 8 + 4 // 25
const summaryHeader = 64

// MaxSummaryEntries is the number of blocks one summary block can describe.
const MaxSummaryEntries = (BlockSize - summaryHeader) / summaryEntrySize

// SummaryFlagTxnEnd marks the final partial write of one log flush: the
// on-disk state after applying every partial write up to and including
// this one is a flush boundary — exactly the state whose durability the
// flush acknowledged. Recovery that can re-derive the un-flushed tail
// from elsewhere (NVRAM replay) rolls forward only through the last
// marked write, discarding torn flush groups atomically.
const SummaryFlagTxnEnd uint8 = 1

// Summary is a segment summary block: one is written at the head of every
// partial-segment write (Section 3.2). Besides identifying the blocks that
// follow it, it carries the write sequence number and a checksum over the
// described data so roll-forward can detect torn writes, the address of
// the next log segment so roll-forward can thread the log, and the age of
// the youngest block so cleaning can age-sort (Section 3.6).
//
// DataChecksum is defined over the data, but a writer whose entry sums are
// already the CRCs of the blocks folds it from them with
// ChecksumAppendBlock instead of reading the data again; readers that must
// not trust the entries (the cleaner, VerifyLog) compute it from the data.
type Summary struct {
	WriteSeq     uint64 // monotone partial-write counter
	Timestamp    uint64 // logical time of the write
	NextSeg      int64  // segment the log will move to after this one
	YoungestAge  uint64 // most recent modified time among described blocks
	DataChecksum uint32 // CRC-32C of the concatenated described blocks
	Flags        uint8  // SummaryFlag* bits
	Entries      []SummaryEntry
}

// Encode serializes the summary into a block-sized buffer.
func (s *Summary) Encode() ([]byte, error) {
	if len(s.Entries) > MaxSummaryEntries {
		return nil, fmt.Errorf("%w: %d summary entries (max %d)", ErrTooLarge, len(s.Entries), MaxSummaryEntries)
	}
	buf := make([]byte, BlockSize)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], MagicSummary)
	le.PutUint64(buf[8:], s.WriteSeq)
	le.PutUint64(buf[16:], s.Timestamp)
	le.PutUint64(buf[24:], uint64(s.NextSeg))
	le.PutUint64(buf[32:], s.YoungestAge)
	le.PutUint32(buf[40:], s.DataChecksum)
	le.PutUint16(buf[44:], uint16(len(s.Entries)))
	buf[46] = s.Flags
	off := summaryHeader
	for _, e := range s.Entries {
		buf[off] = uint8(e.Kind)
		le.PutUint32(buf[off+1:], e.Inum)
		le.PutUint32(buf[off+5:], e.Version)
		le.PutUint32(buf[off+9:], e.BlockNo)
		le.PutUint64(buf[off+13:], e.Age)
		le.PutUint32(buf[off+21:], e.Sum)
		off += summaryEntrySize
	}
	// The checksum covers everything except itself.
	le.PutUint32(buf[4:], Checksum(buf[8:]))
	return buf, nil
}

// The two decode failures every chain walk meets at its end are built
// once: a walk discards them, and should not pay to format them.
var (
	errSummaryMagic    = fmt.Errorf("%w: segment summary", ErrBadMagic)
	errSummaryChecksum = fmt.Errorf("%w: segment summary", ErrBadChecksum)
)

// DecodeSummary parses and validates a segment summary block.
func DecodeSummary(buf []byte) (*Summary, error) {
	s := &Summary{}
	if err := DecodeSummaryInto(buf, s); err != nil {
		return nil, err
	}
	return s, nil
}

// DecodeSummaryInto parses and validates a segment summary block into s,
// reusing the capacity of s.Entries. It is the allocation-free variant
// for callers that decode summaries in a loop (the cleaner's scratch):
// once the entry slice has grown to MaxSummaryEntries, repeated decodes
// allocate nothing. On error s is left with zero entries.
func DecodeSummaryInto(buf []byte, s *Summary) error {
	le := binary.LittleEndian
	s.Entries = s.Entries[:0]
	if le.Uint32(buf[0:]) != MagicSummary {
		return errSummaryMagic
	}
	if le.Uint32(buf[4:]) != Checksum(buf[8:]) {
		return errSummaryChecksum
	}
	n := int(le.Uint16(buf[44:]))
	if n > MaxSummaryEntries {
		return fmt.Errorf("layout: summary claims %d entries", n)
	}
	s.WriteSeq = le.Uint64(buf[8:])
	s.Timestamp = le.Uint64(buf[16:])
	s.NextSeg = int64(le.Uint64(buf[24:]))
	s.YoungestAge = le.Uint64(buf[32:])
	s.DataChecksum = le.Uint32(buf[40:])
	s.Flags = buf[46]
	off := summaryHeader
	for i := 0; i < n; i++ {
		s.Entries = append(s.Entries, SummaryEntry{
			Kind:    BlockKind(buf[off]),
			Inum:    le.Uint32(buf[off+1:]),
			Version: le.Uint32(buf[off+5:]),
			BlockNo: le.Uint32(buf[off+9:]),
			Age:     le.Uint64(buf[off+13:]),
			Sum:     le.Uint32(buf[off+21:]),
		})
		off += summaryEntrySize
	}
	return nil
}
