package layout

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSuperblockRoundTrip(t *testing.T) {
	sb := &Superblock{
		Version:          1,
		BlockSize:        BlockSize,
		SegmentBlocks:    128,
		NumSegments:      500,
		SegmentBase:      16,
		CheckpointAddr:   [2]int64{1, 8},
		CheckpointBlocks: 7,
		MaxInodes:        100000,
	}
	got, err := DecodeSuperblock(sb.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sb) {
		t.Fatalf("round trip: got %+v, want %+v", got, sb)
	}
}

func TestSuperblockRejectsCorruption(t *testing.T) {
	sb := &Superblock{Version: 1, BlockSize: BlockSize, SegmentBlocks: 128}
	enc := sb.Encode()
	enc[9] ^= 0xff
	if _, err := DecodeSuperblock(enc); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
	enc2 := make([]byte, BlockSize) // all zero: no magic
	if _, err := DecodeSuperblock(enc2); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if _, err := DecodeSuperblock(enc[:10]); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestInodeRoundTrip(t *testing.T) {
	ino := NewInode(42, FileTypeRegular)
	ino.Version = 7
	ino.Nlink = 3
	ino.Size = 123456
	ino.Mtime = 99
	ino.Atime = 100
	ino.Direct[0] = 1000
	ino.Direct[9] = 2000
	ino.Indirect = 3000
	ino.DIndir = 4000
	buf := make([]byte, InodeSize)
	ino.EncodeTo(buf)
	got := DecodeInode(buf)
	if !reflect.DeepEqual(got, ino) {
		t.Fatalf("round trip: got %+v, want %+v", got, ino)
	}
}

func TestNewInodeHasNilPointers(t *testing.T) {
	ino := NewInode(1, FileTypeDir)
	for i, a := range ino.Direct {
		if a != NilAddr {
			t.Fatalf("Direct[%d] = %d, want NilAddr", i, a)
		}
	}
	if ino.Indirect != NilAddr || ino.DIndir != NilAddr {
		t.Fatal("indirect pointers not nil")
	}
	if ino.Nlink != 1 {
		t.Fatalf("Nlink = %d, want 1", ino.Nlink)
	}
}

func TestInodeBlockRoundTrip(t *testing.T) {
	var inodes []*Inode
	for i := 0; i < InodesPerBlock; i++ {
		ino := NewInode(uint32(i+10), FileTypeRegular)
		ino.Size = uint64(i * 1000)
		inodes = append(inodes, ino)
	}
	blk, err := EncodeInodeBlock(inodes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeInodeBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(inodes) {
		t.Fatalf("decoded %d inodes, want %d", len(got), len(inodes))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], *inodes[i]) {
			t.Fatalf("inode block round trip mismatch at slot %d", i)
		}
	}
}

func TestInodeBlockOverflow(t *testing.T) {
	inodes := make([]*Inode, InodesPerBlock+1)
	for i := range inodes {
		inodes[i] = NewInode(uint32(i), FileTypeRegular)
	}
	if _, err := EncodeInodeBlock(inodes); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestInodeBlockRejectsCorruption(t *testing.T) {
	blk, _ := EncodeInodeBlock([]*Inode{NewInode(1, FileTypeRegular)})
	blk[100] ^= 1
	if _, err := DecodeInodeBlock(blk); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

// TestOpenInodeBlock is the table of what the in-place view accepts: the
// header checks are DecodeInodeBlock's, and a slot beyond the block's
// count is reported, never read.
func TestOpenInodeBlock(t *testing.T) {
	inodes := []*Inode{NewInode(7, FileTypeRegular), NewInode(9, FileTypeDir), NewInode(11, FileTypeRegular)}
	inodes[1].Size = 12345
	good, err := EncodeInodeBlock(inodes)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	cases := []struct {
		name   string
		mutate func(b []byte)
		bad    bool
		is     error // what a bad block's error must match, if it is typed
	}{
		{name: "good", mutate: func([]byte) {}},
		{name: "bad magic", mutate: func(b []byte) { b[0] ^= 0xff }, bad: true, is: ErrBadMagic},
		{name: "bad CRC (payload)", mutate: func(b []byte) { b[inodeBlockHeader+5] ^= 1 }, bad: true, is: ErrBadChecksum},
		{name: "bad CRC (stored sum)", mutate: func(b []byte) { b[8] ^= 1 }, bad: true, is: ErrBadChecksum},
		{name: "count out of range", mutate: func(b []byte) { le.PutUint16(b[4:], InodesPerBlock+1) }, bad: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blk := append([]byte(nil), good...)
			tc.mutate(blk)
			ib, err := OpenInodeBlock(blk)
			if _, derr := DecodeInodeBlock(blk); (err == nil) != (derr == nil) {
				t.Fatalf("OpenInodeBlock err = %v but DecodeInodeBlock err = %v", err, derr)
			}
			if tc.bad {
				if err == nil || (tc.is != nil && !errors.Is(err, tc.is)) {
					t.Fatalf("err = %v, want an error matching %v", err, tc.is)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for slot, want := range inodes {
				if inum, ok := ib.Inum(slot); !ok || inum != want.Inum {
					t.Fatalf("Inum(%d) = %d, %v; want %d", slot, inum, ok, want.Inum)
				}
				if got, ok := ib.Inode(slot); !ok || !reflect.DeepEqual(got, *want) {
					t.Fatalf("Inode(%d) = %+v, %v; want %+v", slot, got, ok, want)
				}
			}
			// Slot out of range: the encoded count bounds the view, not the
			// buffer (the bytes past the last inode are zero padding).
			for _, slot := range []int{-1, len(inodes), InodesPerBlock, InodesPerBlock + 1} {
				if inum, ok := ib.Inum(slot); ok {
					t.Fatalf("Inum(%d) = %d, want out of range", slot, inum)
				}
				if got, ok := ib.Inode(slot); ok {
					t.Fatalf("Inode(%d) = %+v, want out of range", slot, got)
				}
			}
		})
	}
}

// TestInodeBlockAllocs pins what the in-place view is for: scanning a
// block's inums costs nothing, and a decoded slot is a value, which costs
// nothing either until its caller keeps it (one Inode before the view
// returned values).
func TestInodeBlockAllocs(t *testing.T) {
	inodes := make([]*Inode, InodesPerBlock)
	for i := range inodes {
		inodes[i] = NewInode(uint32(100+i), FileTypeRegular)
	}
	blk, err := EncodeInodeBlock(inodes)
	if err != nil {
		t.Fatal(err)
	}
	var kept Inode
	scan := func(want uint32) func() {
		return func() {
			ib, err := OpenInodeBlock(blk)
			if err != nil {
				t.Fatal(err)
			}
			for slot := 0; ; slot++ {
				inum, ok := ib.Inum(slot)
				if !ok {
					break
				}
				if inum == want {
					kept, _ = ib.Inode(slot)
				}
			}
		}
	}
	if avg := testing.AllocsPerRun(100, scan(0)); avg != 0 {
		t.Fatalf("scan with no wanted slot allocates %.2f times, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, scan(105)); avg != 0 {
		t.Fatalf("scan with one wanted slot allocates %.2f times, want 0", avg)
	}
	if kept.Inum != 105 {
		t.Fatalf("kept = %+v", kept)
	}
}

func TestIndirectBlockRoundTrip(t *testing.T) {
	ptrs := []int64{5, 10, NilAddr, 99}
	blk := make([]byte, BlockSize)
	if err := EncodeIndirectBlock(blk, ptrs); err != nil {
		t.Fatal(err)
	}
	got := DecodeIndirectBlock(blk)
	if len(got) != PointersPerBlock {
		t.Fatalf("decoded %d pointers, want %d", len(got), PointersPerBlock)
	}
	for i, want := range ptrs {
		if got[i] != want {
			t.Fatalf("ptr[%d] = %d, want %d", i, got[i], want)
		}
	}
	for i := len(ptrs); i < PointersPerBlock; i++ {
		if got[i] != NilAddr {
			t.Fatalf("ptr[%d] = %d, want NilAddr", i, got[i])
		}
	}
	if err := EncodeIndirectBlock(blk, make([]int64, PointersPerBlock+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("overflow err = %v", err)
	}
}

func TestImapBlockRoundTrip(t *testing.T) {
	entries := []ImapEntry{
		{Addr: 100, Slot: 3, Version: 2, Atime: 50},
		{Addr: NilAddr, Slot: 0, Version: 9, Atime: 0},
		{Addr: 7777, Slot: 20, Version: 1, Atime: 12345},
	}
	blk := make([]byte, BlockSize)
	if err := EncodeImapBlock(blk, 170, entries); err != nil {
		t.Fatal(err)
	}
	first, got, err := DecodeImapBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	if first != 170 {
		t.Fatalf("firstInum = %d, want 170", first)
	}
	if !reflect.DeepEqual(got, entries) {
		t.Fatalf("got %+v, want %+v", got, entries)
	}
	if !entries[0].Allocated() || entries[1].Allocated() {
		t.Fatal("Allocated() wrong")
	}
}

func TestImapBlockFullAndOverflow(t *testing.T) {
	full := make([]ImapEntry, ImapEntriesPerBlock)
	blk := make([]byte, BlockSize)
	if err := EncodeImapBlock(blk, 0, full); err != nil {
		t.Fatalf("full block: %v", err)
	}
	if err := EncodeImapBlock(blk, 0, append(full, ImapEntry{})); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("overflow err = %v", err)
	}
}

func TestImapBlockRejectsCorruption(t *testing.T) {
	blk := make([]byte, BlockSize)
	_ = EncodeImapBlock(blk, 0, []ImapEntry{{Addr: 5}}) // one entry: cannot fail
	blk[20] ^= 1
	if _, _, err := DecodeImapBlock(blk); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestSegUsageBlockRoundTrip(t *testing.T) {
	entries := []SegUsage{
		{LiveBytes: 4096, LastWrite: 77, Flags: SegFlagDirty},
		{LiveBytes: 0, LastWrite: 0, Flags: 0},
		{LiveBytes: 524288, LastWrite: 1, Flags: SegFlagDirty | SegFlagActive},
	}
	blk := make([]byte, BlockSize)
	if err := EncodeSegUsageBlock(blk, 510, entries); err != nil {
		t.Fatal(err)
	}
	first, got, err := DecodeSegUsageBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	if first != 510 {
		t.Fatalf("firstSeg = %d, want 510", first)
	}
	if !reflect.DeepEqual(got, entries) {
		t.Fatalf("got %+v, want %+v", got, entries)
	}
}

func TestSegUsageOverflow(t *testing.T) {
	if err := EncodeSegUsageBlock(make([]byte, BlockSize), 0, make([]SegUsage, SegUsagePerBlock+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

// TestEncodersOverwriteStaleBytes pins that every encoder which writes into
// a block it is given writes every byte of it: encoded over a block of
// 0xFF, a partly filled and a full block each come out exactly as encoded
// into a fresh one, so a reused buffer cannot carry stale bytes to disk.
func TestEncodersOverwriteStaleBytes(t *testing.T) {
	inode := func(i int) *Inode {
		ino := NewInode(uint32(i+2), FileTypeRegular)
		ino.Size, ino.Mtime, ino.Direct[0] = uint64(i), uint64(3*i), int64(100+i)
		return ino
	}
	encoders := map[string]func(buf []byte, n int) error{
		"inode": func(buf []byte, n int) error {
			inos := make([]*Inode, n)
			for i := range inos {
				inos[i] = inode(i)
			}
			return EncodeInodeBlockTo(buf, inos)
		},
		"indirect": func(buf []byte, n int) error {
			ptrs := make([]int64, n)
			for i := range ptrs {
				ptrs[i] = int64(7 * i)
			}
			return EncodeIndirectBlock(buf, ptrs)
		},
		"imap": func(buf []byte, n int) error {
			entries := make([]ImapEntry, n)
			for i := range entries {
				entries[i] = ImapEntry{Addr: int64(i), Slot: uint16(i % InodesPerBlock), Version: 1, Atime: uint64(i)}
			}
			return EncodeImapBlock(buf, 37, entries)
		},
		"usage": func(buf []byte, n int) error {
			entries := make([]SegUsage, n)
			for i := range entries {
				entries[i] = SegUsage{LiveBytes: uint32(i), LastWrite: uint64(i), Flags: SegFlagDirty}
			}
			return EncodeSegUsageBlock(buf, 12, entries)
		},
		"summary": func(buf []byte, n int) error {
			s := &Summary{WriteSeq: 9, Timestamp: 4, NextSeg: 2, DataChecksum: 5, Flags: SummaryFlagTxnEnd}
			for i := 0; i < n; i++ {
				s.Entries = append(s.Entries, SummaryEntry{Kind: KindData, Inum: uint32(i), BlockNo: uint32(i), Age: 1, Sum: 3})
			}
			return s.EncodeTo(buf)
		},
	}
	full := map[string]int{
		"inode": InodesPerBlock, "indirect": PointersPerBlock, "imap": ImapEntriesPerBlock,
		"usage": SegUsagePerBlock, "summary": MaxSummaryEntries,
	}
	for name, encode := range encoders {
		for _, n := range []int{0, 1, full[name]} {
			fresh, stale := make([]byte, BlockSize), bytes.Repeat([]byte{0xFF}, BlockSize)
			if err := encode(fresh, n); err != nil {
				t.Fatalf("%s, %d entries: %v", name, n, err)
			}
			if err := encode(stale, n); err != nil {
				t.Fatalf("%s, %d entries: %v", name, n, err)
			}
			if i := firstDiff(fresh, stale); i >= 0 {
				t.Errorf("%s, %d entries: byte %d is %#x over a 0xFF block, %#x over a fresh one", name, n, i, stale[i], fresh[i])
			}
		}
	}
}

// firstDiff returns the first offset where a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func TestSummaryRoundTrip(t *testing.T) {
	s := &Summary{
		WriteSeq:     42,
		Timestamp:    1234,
		NextSeg:      17,
		YoungestAge:  1200,
		DataChecksum: 0xdeadbeef,
		Entries: []SummaryEntry{
			{Kind: KindData, Inum: 5, Version: 1, BlockNo: 0},
			{Kind: KindInode, Inum: 0, Version: 0, BlockNo: 0},
			{Kind: KindImap, Inum: 2, Version: 0, BlockNo: 0},
			{Kind: KindIndirect, Inum: 5, Version: 1, BlockNo: 700},
			{Kind: KindDirLog},
			{Kind: KindSegUsage, Inum: 1},
		},
	}
	blk, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSummary(blk)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("got %+v, want %+v", got, s)
	}
}

func TestSummaryRejectsCorruption(t *testing.T) {
	s := &Summary{WriteSeq: 1, Entries: []SummaryEntry{{Kind: KindData, Inum: 1}}}
	blk, _ := s.Encode()
	blk[70] ^= 0x40
	if _, err := DecodeSummary(blk); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
	zero := make([]byte, BlockSize)
	if _, err := DecodeSummary(zero); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestSummaryCapacityCoversSegment(t *testing.T) {
	// One summary must be able to describe at least a whole 512 KB
	// segment minus itself (127 blocks).
	if MaxSummaryEntries < 127 {
		t.Fatalf("MaxSummaryEntries = %d, want >= 127", MaxSummaryEntries)
	}
	entries := make([]SummaryEntry, MaxSummaryEntries)
	s := &Summary{Entries: entries}
	if _, err := s.Encode(); err != nil {
		t.Fatal(err)
	}
	s.Entries = make([]SummaryEntry, MaxSummaryEntries+1)
	if _, err := s.Encode(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("overflow err = %v", err)
	}
}

func TestBlockKindString(t *testing.T) {
	kinds := map[BlockKind]string{
		KindData: "data", KindIndirect: "indirect", KindInode: "inode",
		KindImap: "imap", KindSegUsage: "segusage", KindDirLog: "dirlog",
		BlockKind(99): "kind(99)",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	cp := &Checkpoint{
		Seq:         9,
		Timestamp:   1000,
		NextInum:    55,
		HeadSeg:     12,
		HeadOffset:  34,
		NextSeg:     13,
		WriteSeq:    200,
		DirLogSeq:   77,
		ImapAddrs:   []int64{100, 200, NilAddr},
		UsageAddrs:  []int64{300, 400},
		Quarantined: []int64{7, 9},
	}
	n := CheckpointBlocksNeeded(len(cp.ImapAddrs), len(cp.UsageAddrs), len(cp.Quarantined))
	buf, err := cp.Encode(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != n*BlockSize {
		t.Fatalf("encoded %d bytes, want %d", len(buf), n*BlockSize)
	}
	got, err := DecodeCheckpoint(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("got %+v, want %+v", got, cp)
	}
}

func TestCheckpointMultiBlock(t *testing.T) {
	cp := &Checkpoint{Seq: 1}
	for i := 0; i < 600; i++ {
		cp.ImapAddrs = append(cp.ImapAddrs, int64(i))
	}
	for i := 0; i < 600; i++ {
		cp.UsageAddrs = append(cp.UsageAddrs, int64(i*2))
	}
	n := CheckpointBlocksNeeded(600, 600, 0)
	if n < 3 {
		t.Fatalf("expected multi-block checkpoint, got %d blocks", n)
	}
	buf, err := cp.Encode(n)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.ImapAddrs, cp.ImapAddrs) || !reflect.DeepEqual(got.UsageAddrs, cp.UsageAddrs) {
		t.Fatal("multi-block address arrays mismatch")
	}
}

func TestCheckpointTornDetected(t *testing.T) {
	cp := &Checkpoint{Seq: 5, ImapAddrs: []int64{1}, UsageAddrs: []int64{2}}
	buf, err := cp.Encode(2)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a torn checkpoint: the last block (with the trailer) never
	// made it to disk.
	torn := make([]byte, len(buf))
	copy(torn, buf[:BlockSize])
	if _, err := DecodeCheckpoint(torn); err == nil {
		t.Fatal("torn checkpoint accepted")
	}
	// Corrupted interior.
	buf[cpHeader] ^= 1
	if _, err := DecodeCheckpoint(buf); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestCheckpointTooSmallRegion(t *testing.T) {
	cp := &Checkpoint{ImapAddrs: make([]int64, 1000), UsageAddrs: make([]int64, 1000)}
	if _, err := cp.Encode(1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestDirectoryRoundTrip(t *testing.T) {
	entries := []DirEntry{
		{Inum: 1, Name: "."},
		{Inum: 1, Name: ".."},
		{Inum: 5, Name: "hello.txt"},
		{Inum: 9, Name: string(bytes.Repeat([]byte{'x'}, MaxNameLen))},
	}
	data, err := EncodeDirectory(entries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDirectory(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, entries) {
		t.Fatalf("got %+v, want %+v", got, entries)
	}
}

func TestDirectoryEmpty(t *testing.T) {
	data, err := EncodeDirectory(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDirectory(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d entries from empty dir", len(got))
	}
}

// TestEncodeDirectoryFrom pins the partial encoder against the whole one:
// the start is the block holding entries[from]'s first byte, and the bytes
// are the whole stream's from there on. Appended to a block, a tail that
// fits lands in it without an allocation. Entries are 16 bytes (names of
// 10) unless a case says otherwise, so 256 of them fill a block exactly.
func TestEncodeDirectoryFrom(t *testing.T) {
	dir := func(n int, nameLen func(i int) int) []DirEntry {
		entries := make([]DirEntry, n)
		for i := range entries {
			l := 10
			if nameLen != nil {
				l = nameLen(i)
			}
			entries[i] = DirEntry{Inum: uint32(i + 2), Name: fmt.Sprintf("%0*d", l, i)}
		}
		return entries
	}
	straddler := func(i int) int { // entry 255 runs from byte 4080 to 4106
		if i == 255 {
			return 20
		}
		return 10
	}
	for _, tc := range []struct {
		name      string
		entries   []DirEntry
		from      int
		wantStart int
	}{
		{"empty directory", nil, 0, 0},
		{"from 0", dir(600, nil), 0, 0},
		{"from the middle", dir(600, nil), 300, BlockSize},
		{"from len", dir(600, nil), 600, 2 * BlockSize},
		{"entry ending on the boundary", dir(600, nil), 255, 0},
		{"entry starting on the boundary", dir(600, nil), 256, BlockSize},
		{"stream ending on the boundary", dir(256, nil), 256, BlockSize},
		{"entry straddling the boundary", dir(600, straddler), 255, 0},
		{"entry behind the straddler", dir(600, straddler), 256, BlockSize},
		{"a tail of one block behind the straddler", dir(300, straddler), 256, BlockSize},
		{"delete pulls the end back a block", dir(256, straddler)[:255], 255, 0},
	} {
		whole, err := EncodeDirectory(tc.entries)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		start, data, err := EncodeDirectoryFrom(nil, tc.entries, tc.from)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if start != tc.wantStart {
			t.Errorf("%s: start %d, want %d", tc.name, start, tc.wantStart)
		} else if !bytes.Equal(data, whole[start:]) {
			t.Errorf("%s: %d bytes from %d differ from the whole encoding's %d", tc.name, len(data), start, len(whole)-start)
		}
		blk := make([]byte, 0, BlockSize)
		avg := testing.AllocsPerRun(10, func() { _, data, _ = EncodeDirectoryFrom(blk, tc.entries, tc.from) })
		if !bytes.Equal(data, whole[start:]) {
			t.Errorf("%s: appended to a block, the tail differs", tc.name)
		} else if len(data) <= BlockSize && avg != 0 {
			t.Errorf("%s: a tail of %d bytes appended to a block allocates %v times", tc.name, len(data), avg)
		}
	}
	if _, _, err := EncodeDirectoryFrom(nil, []DirEntry{{Inum: 1, Name: ""}, {Inum: 2, Name: "ok"}}, 1); err == nil {
		t.Error("empty name in front of from accepted")
	}
}

func TestDirectoryRejectsBadNames(t *testing.T) {
	if _, err := EncodeDirectory([]DirEntry{{Inum: 1, Name: ""}}); err == nil {
		t.Fatal("empty name accepted")
	}
	long := string(bytes.Repeat([]byte{'y'}, MaxNameLen+1))
	if _, err := EncodeDirectory([]DirEntry{{Inum: 1, Name: long}}); err == nil {
		t.Fatal("overlong name accepted")
	}
}

func TestDirectoryRejectsCorruption(t *testing.T) {
	data, _ := EncodeDirectory([]DirEntry{{Inum: 3, Name: "abc"}})
	if _, err := DecodeDirectory(data[:len(data)-1]); err == nil {
		t.Fatal("truncated directory accepted")
	}
	if _, err := DecodeDirectory(data[:3]); err == nil {
		t.Fatal("tiny fragment accepted")
	}
}

func TestDirOpLogRoundTrip(t *testing.T) {
	ops := []DirOp{
		{Seq: 1, Op: DirOpCreate, Dir: 1, Name: "f1", Inum: 10, NewNlink: 1},
		{Seq: 2, Op: DirOpLink, Dir: 2, Name: "f2", Inum: 10, NewNlink: 2},
		{Seq: 3, Op: DirOpRename, Dir: 1, Name: "f1", Inum: 10, NewNlink: 2, Dir2: 3, Name2: "moved"},
		{Seq: 4, Op: DirOpUnlink, Dir: 2, Name: "f2", Inum: 10, NewNlink: 1},
	}
	blk, n, err := EncodeDirOpLog(ops)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(ops) {
		t.Fatalf("consumed %d, want %d", n, len(ops))
	}
	got, err := DecodeDirOpLog(blk)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ops) {
		t.Fatalf("got %+v, want %+v", got, ops)
	}
	// The same records by pointer encode to the same block.
	ptrs := make([]*DirOp, len(ops))
	for i := range ops {
		ptrs[i] = &ops[i]
	}
	if blk2, n2, err := EncodeDirOpLog(ptrs); err != nil || n2 != n || !bytes.Equal(blk2, blk) {
		t.Fatalf("records by pointer: %d consumed, err %v, same block %v", n2, err, bytes.Equal(blk2, blk))
	}
}

func TestDirOpLogSpillsToNextBlock(t *testing.T) {
	var ops []DirOp
	name := string(bytes.Repeat([]byte{'n'}, 200))
	for i := 0; i < 40; i++ {
		ops = append(ops, DirOp{Seq: uint64(i), Op: DirOpCreate, Dir: 1, Name: name, Inum: uint32(i)})
	}
	blk, n, err := EncodeDirOpLog(ops)
	if err != nil {
		t.Fatal(err)
	}
	if n >= len(ops) {
		t.Fatalf("expected spill, consumed all %d", n)
	}
	got, err := DecodeDirOpLog(blk)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("decoded %d, want %d", len(got), n)
	}
	// The remainder encodes into a second block.
	_, n2, err := EncodeDirOpLog(ops[n:])
	if err != nil {
		t.Fatal(err)
	}
	if n2 == 0 {
		t.Fatal("second block consumed nothing")
	}
}

// TestDirLogCountMatchesEncode checks DirLogCount against EncodeDirOpLog
// itself: after every record of sequences that mix empty, short and
// maximal names (a rename carries two), the count is the number of blocks
// that encoding the records so far takes.
func TestDirLogCountMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	name := func(c byte) string { return string(bytes.Repeat([]byte{c}, rng.Intn(MaxNameLen+1))) }
	for run := 0; run < 20; run++ {
		var count DirLogCount
		var ops []DirOp
		for i := 0; i < 200; i++ {
			op := DirOp{Seq: uint64(i), Op: DirOpCreate, Dir: 1, Name: name('n'), Inum: uint32(i)}
			if rng.Intn(4) == 0 {
				op.Op, op.Dir2, op.Name2 = DirOpRename, 2, name('m')
			}
			ops = append(ops, op)
			count.Add(&op)
			blocks := 0
			for rest := ops; len(rest) > 0; blocks++ {
				_, n, err := EncodeDirOpLog(rest)
				if err != nil {
					t.Fatal(err)
				}
				rest = rest[n:]
			}
			if count.Blocks() != blocks {
				t.Fatalf("run %d, after %d records: DirLogCount says %d blocks, EncodeDirOpLog takes %d",
					run, len(ops), count.Blocks(), blocks)
			}
		}
	}
}

func TestDirOpLogRejectsCorruption(t *testing.T) {
	blk, _, _ := EncodeDirOpLog([]DirOp{{Seq: 1, Op: DirOpCreate, Dir: 1, Name: "a", Inum: 2}})
	blk[30] ^= 1
	if _, err := DecodeDirOpLog(blk); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

// TestAllocsDecodeDirectory pins DecodeDirectory at two allocations per
// stream — the entry slice and the one string the names are cut from —
// whatever the number of entries.
func TestAllocsDecodeDirectory(t *testing.T) {
	for _, n := range []int{1, 200} {
		entries := make([]DirEntry, n)
		for i := range entries {
			entries[i] = DirEntry{Inum: uint32(i + 2), Name: fmt.Sprintf("file-%04d", i)}
		}
		data, err := EncodeDirectory(entries)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := DecodeDirectory(data); err != nil || !reflect.DeepEqual(got, entries) {
			t.Fatalf("%d entries: decoded %d, %v", n, len(got), err)
		}
		if avg := testing.AllocsPerRun(100, func() { _, _ = DecodeDirectory(data) }); avg != 2 {
			t.Errorf("%d entries: DecodeDirectory allocates %v times, want 2", n, avg)
		}
	}
	if avg := testing.AllocsPerRun(100, func() { _, _ = DecodeDirectory(nil) }); avg != 0 {
		t.Errorf("empty directory: DecodeDirectory allocates %v times, want 0", avg)
	}
}

// TestAllocsDecodeDirOpLog pins DecodeDirOpLog at two allocations per
// block — the record slice and the one string the names are cut from —
// whether the block holds one record or is full.
func TestAllocsDecodeDirOpLog(t *testing.T) {
	var ops []DirOp
	for i := 0; i < 200; i++ {
		ops = append(ops, DirOp{Seq: uint64(i), Op: DirOpRename, Dir: 1, Name: fmt.Sprintf("f%d", i),
			Inum: uint32(i + 2), Version: 1, NewNlink: 1, Dir2: 3, Name2: fmt.Sprintf("r%d", i)})
	}
	for _, n := range []int{1, len(ops)} {
		blk, fit, err := EncodeDirOpLog(ops[:n])
		if err != nil {
			t.Fatal(err)
		}
		if n > 1 && fit < 100 {
			t.Fatalf("a full block holds only %d records", fit)
		}
		if got, err := DecodeDirOpLog(blk); err != nil || !reflect.DeepEqual(got, ops[:fit]) {
			t.Fatalf("%d records: decoded %d, %v", fit, len(got), err)
		}
		if avg := testing.AllocsPerRun(100, func() { _, _ = DecodeDirOpLog(blk) }); avg != 2 {
			t.Errorf("%d records: DecodeDirOpLog allocates %v times, want 2", fit, avg)
		}
	}
}

func TestDirOpCodeString(t *testing.T) {
	if DirOpCreate.String() != "create" || DirOpUnlink.String() != "unlink" ||
		DirOpLink.String() != "link" || DirOpRename.String() != "rename" {
		t.Fatal("DirOpCode.String wrong")
	}
	if DirOpCode(9).String() != "dirop(9)" {
		t.Fatal("unknown opcode string wrong")
	}
}

// Property: inode encode/decode is the identity for arbitrary field values.
func TestQuickInodeRoundTrip(t *testing.T) {
	f := func(inum, version uint32, typ uint8, nlink uint16, size, mtime uint64, d0, d9, ind int64) bool {
		ino := NewInode(inum, typ)
		ino.Version = version
		ino.Nlink = nlink
		ino.Size = size
		ino.Mtime = mtime
		ino.Direct[0] = d0
		ino.Direct[9] = d9
		ino.Indirect = ind
		buf := make([]byte, InodeSize)
		ino.EncodeTo(buf)
		return reflect.DeepEqual(DecodeInode(buf), ino)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: directory encode/decode is the identity for arbitrary entries.
func TestQuickDirectoryRoundTrip(t *testing.T) {
	f := func(inums []uint32, seed uint8) bool {
		var entries []DirEntry
		for i, in := range inums {
			name := make([]byte, 1+(i+int(seed))%32)
			for j := range name {
				name[j] = 'a' + byte((i+j)%26)
			}
			entries = append(entries, DirEntry{Inum: in, Name: string(name)})
		}
		data, err := EncodeDirectory(entries)
		if err != nil {
			return false
		}
		got, err := DecodeDirectory(data)
		if err != nil {
			return false
		}
		if len(entries) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, entries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: checkpoint round trip for arbitrary address lists.
func TestQuickCheckpointRoundTrip(t *testing.T) {
	f := func(seq, ts uint64, imap, usage []int64) bool {
		if len(imap) > 400 {
			imap = imap[:400]
		}
		if len(usage) > 400 {
			usage = usage[:400]
		}
		cp := &Checkpoint{Seq: seq, Timestamp: ts, ImapAddrs: imap, UsageAddrs: usage}
		n := CheckpointBlocksNeeded(len(imap), len(usage), 0)
		buf, err := cp.Encode(n)
		if err != nil {
			return false
		}
		got, err := DecodeCheckpoint(buf)
		if err != nil {
			return false
		}
		if got.Seq != seq || got.Timestamp != ts {
			return false
		}
		if len(imap) == 0 && len(got.ImapAddrs) != 0 {
			return false
		}
		if len(imap) > 0 && !reflect.DeepEqual(got.ImapAddrs, imap) {
			return false
		}
		if len(usage) > 0 && !reflect.DeepEqual(got.UsageAddrs, usage) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
