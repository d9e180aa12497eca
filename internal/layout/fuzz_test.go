package layout

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzDirBlock throws arbitrary bytes at the two directory-related
// decoders. Neither may panic; when DecodeDirectory accepts an input,
// re-encoding its result must reproduce the input byte for byte (the
// directory stream has a canonical form) and encoding from any entry on
// must reproduce that entry's block and everything behind it. Neither
// decoder's names alias the input: overwriting it after decoding leaves
// every decoded name as it was.
func FuzzDirBlock(f *testing.F) {
	enc, _ := EncodeDirectory([]DirEntry{
		{Inum: 2, Name: "hello"},
		{Inum: 9, Name: "a"},
	})
	f.Add(enc)
	ops := []DirOp{
		{Seq: 1, Op: DirOpCreate, Dir: 1, Name: "f0", Inum: 2, Version: 1, NewNlink: 1},
		{Seq: 2, Op: DirOpRename, Dir: 1, Name: "f0", Inum: 2, Version: 1, NewNlink: 1, Dir2: 3, Name2: "r9"},
		{Seq: 3, Op: DirOpUnlink, Dir: 3, Name: "r9", Inum: 2, Version: 1},
	}
	block, _, _ := EncodeDirOpLog(ops)
	f.Add(block)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The decoders get a copy that is scribbled over once they return.
		in := bytes.Clone(data)
		entries, _ := DecodeDirectory(in)
		ops, _ := DecodeDirOpLog(in)
		var names []string
		for _, e := range entries {
			names = append(names, strings.Clone(e.Name))
		}
		for _, op := range ops {
			names = append(names, strings.Clone(op.Name), strings.Clone(op.Name2))
		}
		for i := range in {
			in[i] = ^in[i]
		}
		k := 0
		for _, e := range entries {
			if e.Name != names[k] {
				t.Fatalf("directory entry %d's name changed with its input: %q -> %q", k, names[k], e.Name)
			}
			k++
		}
		for i, op := range ops {
			if op.Name != names[k] || op.Name2 != names[k+1] {
				t.Fatalf("dirlog record %d's names changed with their input: %q %q -> %q %q", i, names[k], names[k+1], op.Name, op.Name2)
			}
			k += 2
		}

		if entries, err := DecodeDirectory(data); err == nil {
			re, err := EncodeDirectory(entries)
			if err != nil {
				t.Fatalf("decoded directory does not re-encode: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("directory round trip changed bytes: %x -> %x", data, re)
			}
			for _, from := range []int{0, len(entries) / 2, len(entries)} {
				start, tail, err := EncodeDirectoryFrom(nil, entries, from)
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
