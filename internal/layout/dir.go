package layout

import (
	"encoding/binary"
	"fmt"
)

// DirEntry is one directory entry: a name bound to an inode number.
type DirEntry struct {
	Inum uint32
	Name string
}

// MaxNameLen is the longest permitted file name.
const MaxNameLen = 255

// EncodeDirectory serializes directory entries into the byte stream stored
// as the directory file's data. The stream is a sequence of
// (inum u32, nameLen u16, name) records.
func EncodeDirectory(entries []DirEntry) ([]byte, error) {
	_, data, err := EncodeDirectoryFrom(entries, 0)
	return data, err
}

// EncodeDirectoryFrom encodes the tail of the directory stream that a
// change at entries[from] can have altered: it returns the offset of the
// block holding that entry's first byte (the stream's length, rounded
// down, when from is len(entries)) and the stream's bytes from there to
// its end. Every name is checked, whichever entries are encoded.
func EncodeDirectoryFrom(entries []DirEntry, from int) (start int, data []byte, err error) {
	size, off := 0, 0
	for i, e := range entries {
		if len(e.Name) == 0 || len(e.Name) > MaxNameLen {
			return 0, nil, fmt.Errorf("layout: bad directory entry name length %d", len(e.Name))
		}
		if i == from {
			off = size
		}
		size += 6 + len(e.Name)
	}
	first := from
	if from >= len(entries) {
		first, off = len(entries), size
	}
	start = off / BlockSize * BlockSize
	// An entry straddling the block boundary is encoded whole and its
	// leading bytes skipped.
	for off > start {
		first--
		off -= 6 + len(entries[first].Name)
	}
	buf := make([]byte, size-off)
	le := binary.LittleEndian
	pos := 0
	for _, e := range entries[first:] {
		le.PutUint32(buf[pos:], e.Inum)
		le.PutUint16(buf[pos+4:], uint16(len(e.Name)))
		copy(buf[pos+6:], e.Name)
		pos += 6 + len(e.Name)
	}
	return start, buf[start-off:], nil
}

// DecodeDirectory parses a directory byte stream. It allocates twice
// however many entries the stream holds (an empty stream decodes to nil):
// the entry slice, of exactly their number, and one string copy of the
// stream, of which every Name is a substring. The names therefore share
// nothing with data, and all of them together keep at most that one copy
// of the stream alive.
func DecodeDirectory(data []byte) ([]DirEntry, error) {
	le := binary.LittleEndian
	count := 0
	for off := 0; off < len(data); count++ {
		if off+6 > len(data) {
			return nil, fmt.Errorf("layout: truncated directory entry at %d", off)
		}
		n := int(le.Uint16(data[off+4:]))
		if n == 0 || n > MaxNameLen || off+6+n > len(data) {
			return nil, fmt.Errorf("layout: corrupt directory entry at %d (len %d)", off, n)
		}
		off += 6 + n
	}
	if count == 0 {
		return nil, nil
	}
	out := make([]DirEntry, count)
	s := string(data)
	off := 0
	for i := range out {
		n := int(le.Uint16(data[off+4:]))
		out[i] = DirEntry{Inum: le.Uint32(data[off:]), Name: s[off+6 : off+6+n]}
		off += 6 + n
	}
	return out, nil
}

// DirOpCode identifies a directory-operation-log record type (Section 4.2:
// create, link, rename, unlink).
type DirOpCode uint8

// Directory operation codes.
const (
	DirOpCreate DirOpCode = 1
	DirOpLink   DirOpCode = 2
	DirOpRename DirOpCode = 3
	DirOpUnlink DirOpCode = 4
)

// String implements fmt.Stringer for diagnostics.
func (c DirOpCode) String() string {
	switch c {
	case DirOpCreate:
		return "create"
	case DirOpLink:
		return "link"
	case DirOpRename:
		return "rename"
	case DirOpUnlink:
		return "unlink"
	default:
		return fmt.Sprintf("dirop(%d)", uint8(c))
	}
}

// DirOp is one directory-operation-log record (Section 4.2). Sprite LFS
// guarantees that each record appears in the log before the corresponding
// directory block or inode, so roll-forward can restore consistency
// between directory entries and inode reference counts. Rename carries
// both the source (Dir, Name) and destination (Dir2, Name2), which is what
// makes rename atomic across a crash.
type DirOp struct {
	Seq      uint64
	Op       DirOpCode
	Dir      uint32 // directory inum the operation applies to
	Name     string // entry name within Dir
	Inum     uint32 // inode named by the entry
	Version  uint32 // the file incarnation (uid) the operation applies to
	NewNlink uint16 // inode reference count after the operation
	Dir2     uint32 // rename only: destination directory
	Name2    string // rename only: destination name
}

const dirLogBlockHeader = 16 // magic, count, crc

// encodedSize returns the record's size in a dirlog block.
func (op *DirOp) encodedSize() int {
	return 8 + 1 + 4 + 4 + 4 + 2 + 4 + 2 + len(op.Name) + 2 + len(op.Name2)
}

// EncodeDirOpLog packs records into one dirlog block. It returns the
// encoded block and how many records fit; callers loop until all records
// are written.
func EncodeDirOpLog(ops []*DirOp) (block []byte, consumed int, err error) {
	buf := make([]byte, BlockSize)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], MagicDirLog)
	off := dirLogBlockHeader
	for _, op := range ops {
		if len(op.Name) > MaxNameLen || len(op.Name2) > MaxNameLen {
			return nil, 0, fmt.Errorf("layout: dirlog name too long")
		}
		sz := op.encodedSize()
		if off+sz > BlockSize {
			break
		}
		le.PutUint64(buf[off:], op.Seq)
		buf[off+8] = uint8(op.Op)
		le.PutUint32(buf[off+9:], op.Dir)
		le.PutUint32(buf[off+13:], op.Inum)
		le.PutUint32(buf[off+17:], op.Version)
		le.PutUint16(buf[off+21:], op.NewNlink)
		le.PutUint32(buf[off+23:], op.Dir2)
		le.PutUint16(buf[off+27:], uint16(len(op.Name)))
		copy(buf[off+29:], op.Name)
		p := off + 29 + len(op.Name)
		le.PutUint16(buf[p:], uint16(len(op.Name2)))
		copy(buf[p+2:], op.Name2)
		off += sz
		consumed++
	}
	if consumed == 0 && len(ops) > 0 {
		return nil, 0, fmt.Errorf("%w: dirlog record", ErrTooLarge)
	}
	le.PutUint16(buf[4:], uint16(consumed))
	le.PutUint32(buf[8:], Checksum(buf[dirLogBlockHeader:]))
	return buf, consumed, nil
}

// DecodeDirOpLog parses a dirlog block. It allocates three times however
// many records the block holds: one slab of them, the slice of pointers
// into it, and one string copy of the bytes the records occupy (not the
// whole block), of which every Name and Name2 is a substring. The names
// therefore share nothing with buf; a caller that keeps one past the
// records' own lifetime clones it rather than pin the block's records.
func DecodeDirOpLog(buf []byte) ([]*DirOp, error) {
	le := binary.LittleEndian
	if len(buf) < dirLogBlockHeader {
		return nil, fmt.Errorf("layout: dirlog block too small (%d bytes)", len(buf))
	}
	if le.Uint32(buf[0:]) != MagicDirLog {
		return nil, fmt.Errorf("%w: dirlog block", ErrBadMagic)
	}
	if le.Uint32(buf[8:]) != Checksum(buf[dirLogBlockHeader:]) {
		return nil, fmt.Errorf("%w: dirlog block", ErrBadChecksum)
	}
	n := int(le.Uint16(buf[4:]))
	end := dirLogBlockHeader
	for i := 0; i < n; i++ {
		if end+29 > len(buf) {
			return nil, fmt.Errorf("layout: truncated dirlog record %d", i)
		}
		p := end + 29 + int(le.Uint16(buf[end+27:]))
		if p+2 > len(buf) {
			return nil, fmt.Errorf("layout: truncated dirlog name in record %d", i)
		}
		end = p + 2 + int(le.Uint16(buf[p:]))
		if end > len(buf) {
			return nil, fmt.Errorf("layout: truncated dirlog name2 in record %d", i)
		}
	}
	slab := make([]DirOp, n)
	out := make([]*DirOp, n)
	// Offsets below count from the first record: s[i] is
	// buf[dirLogBlockHeader+i], and the header is not copied.
	s := string(buf[dirLogBlockHeader:end])
	off := 0
	for i := range slab {
		r := buf[dirLogBlockHeader+off:]
		p := off + 29 + int(le.Uint16(r[27:]))
		next := p + 2 + int(le.Uint16(r[p-off:]))
		slab[i] = DirOp{
			Seq:      le.Uint64(r),
			Op:       DirOpCode(r[8]),
			Dir:      le.Uint32(r[9:]),
			Name:     s[off+29 : p],
			Inum:     le.Uint32(r[13:]),
			Version:  le.Uint32(r[17:]),
			NewNlink: le.Uint16(r[21:]),
			Dir2:     le.Uint32(r[23:]),
			Name2:    s[p+2 : next],
		}
		out[i] = &slab[i]
		off = next
	}
	return out, nil
}
