package layout

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDirBlock throws arbitrary bytes at the two directory-related
// decoders. Neither may panic; when DecodeDirectory accepts an input,
// re-encoding its result must reproduce the input byte for byte (the
// directory stream has a canonical form) and encoding from any entry on
// must reproduce that entry's block and everything behind it.
func FuzzDirBlock(f *testing.F) {
	enc, _ := EncodeDirectory([]DirEntry{
		{Inum: 2, Name: "hello"},
		{Inum: 9, Name: "a"},
	})
	f.Add(enc)
	ops := []*DirOp{
		{Seq: 1, Op: DirOpCreate, Dir: 1, Name: "f0", Inum: 2, Version: 1, NewNlink: 1},
		{Seq: 2, Op: DirOpRename, Dir: 1, Name: "f0", Inum: 2, Version: 1, NewNlink: 1, Dir2: 3, Name2: "r9"},
		{Seq: 3, Op: DirOpUnlink, Dir: 3, Name: "r9", Inum: 2, Version: 1},
	}
	block, _, _ := EncodeDirOpLog(ops)
	f.Add(block)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		if entries, err := DecodeDirectory(data); err == nil {
			re, err := EncodeDirectory(entries)
			if err != nil {
				t.Fatalf("decoded directory does not re-encode: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("directory round trip changed bytes: %x -> %x", data, re)
			}
			for _, from := range []int{0, len(entries) / 2, len(entries)} {
				start, tail, err := EncodeDirectoryFrom(entries, from)
				if err != nil || start%BlockSize != 0 || start > len(data) || !bytes.Equal(tail, data[start:]) {
					t.Fatalf("encoding %d entries from %d: start %d, %d bytes, err %v; whole is %d bytes", len(entries), from, start, len(tail), err, len(data))
				}
			}
		}
		if ops, err := DecodeDirOpLog(data); err == nil {
			// A valid dirlog block is checksummed; its records must
			// round-trip through the encoder.
			re, n, err := EncodeDirOpLog(ops)
			if len(ops) > 0 {
				if err != nil || n != len(ops) {
					t.Fatalf("decoded dirlog does not re-encode: n=%d err=%v", n, err)
				}
				ops2, err := DecodeDirOpLog(re)
				if err != nil || !reflect.DeepEqual(ops, ops2) {
					t.Fatalf("dirlog round trip diverged: %v", err)
				}
			}
		}
	})
}

// FuzzCheckpointDecode throws arbitrary bytes at the checkpoint-region
// decoder. It must never panic, and anything it accepts must survive an
// encode/decode round trip unchanged — the property mount recovery
// depends on when picking the newer checkpoint.
func FuzzCheckpointDecode(f *testing.F) {
	cp := &Checkpoint{
		Seq: 7, Timestamp: 99, NextInum: 12, HeadSeg: 3, HeadOffset: 17,
		NextSeg: 5, WriteSeq: 41, DirLogSeq: 23,
		ImapAddrs:  []int64{100, NilAddr, 102},
		UsageAddrs: []int64{200, 201},
	}
	enc, err := cp.Encode(1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte{})
	f.Add(make([]byte, BlockSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		re, err := got.Encode(len(data) / BlockSize)
		if err != nil {
			t.Fatalf("decoded checkpoint does not re-encode: %v", err)
		}
		got2, err := DecodeCheckpoint(re)
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
		if !reflect.DeepEqual(normalizeCP(got), normalizeCP(got2)) {
			t.Fatalf("checkpoint round trip diverged:\n%+v\n%+v", got, got2)
		}
	})
}

// normalizeCP maps empty and nil address slices together; the encoding
// does not distinguish them.
func normalizeCP(cp *Checkpoint) Checkpoint {
	c := *cp
	if len(c.ImapAddrs) == 0 {
		c.ImapAddrs = nil
	}
	if len(c.UsageAddrs) == 0 {
		c.UsageAddrs = nil
	}
	return c
}
