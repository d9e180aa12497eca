package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/layout"
)

// modelOf reads the whole tree of fs into a Model, and every file's link
// count (which the Model does not hold) beside it.
func modelOf(t *testing.T, fs *FS) (*Model, map[string]int) {
	t.Helper()
	m, nlink := NewModel(), map[string]int{}
	var walk func(dir string)
	walk = func(dir string) {
		entries, err := fs.ReadDir(dir)
		if err != nil {
			t.Fatalf("ReadDir %s: %v", dir, err)
		}
		for _, e := range entries {
			p := strings.TrimSuffix(dir, "/") + "/" + e.Name
			info, err := fs.Stat(p)
			if err != nil {
				t.Fatalf("Stat %s: %v", p, err)
			}
			if info.IsDir {
				m.Dirs[p] = true
				walk(p)
				continue
			}
			data, err := fs.ReadFile(p)
			if err != nil {
				t.Fatalf("ReadFile %s: %v", p, err)
			}
			m.Files[p], nlink[p] = data, info.Nlink
		}
	}
	walk("/")
	return m, nlink
}

// TestReplayMatchesLive runs one operation of every record kind live on
// one file system and, through the NVRAM's wire image, as a replay on a
// second that never saw the call; then replays the same image once more
// over the result. Both must leave the tree the live call left.
func TestReplayMatchesLive(t *testing.T) {
	big := bytes.Repeat([]byte("replay"), (3*layout.BlockSize+17)/6)
	cases := []struct {
		name string
		kind nvKind
		op   func(fs *FS) error
	}{
		{"create", nvCreate, func(fs *FS) error { return fs.Create("/d/new") }},
		{"mkdir", nvMkdir, func(fs *FS) error { return fs.Mkdir("/d/sub") }},
		{"writeat", nvWriteAt, func(fs *FS) error { _, err := fs.WriteAt("/d/f", 100, big); return err }},
		{"writefile-new", nvWriteFile, func(fs *FS) error { return fs.WriteFile("/d/new", big) }},
		{"writefile-over", nvWriteFile, func(fs *FS) error { return fs.WriteFile("/d/f", []byte("short")) }},
		{"truncate", nvTruncate, func(fs *FS) error { return fs.Truncate("/d/f", 5000) }},
		{"remove", nvRemove, func(fs *FS) error { return fs.Remove("/d/f") }},
		{"rename-over", nvRename, func(fs *FS) error { return fs.Rename("/d/f", "/g") }},
		{"link", nvLink, func(fs *FS) error { return fs.Link("/d/f", "/d/l") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nv := NewNVRAM(1 << 20)
			opts := testOptions()
			opts.NVRAM = nv
			live, d := newTestFS(t, 4096, opts)
			if err := live.Mkdir("/d"); err != nil {
				t.Fatal(err)
			}
			if err := live.WriteFile("/d/f", bytes.Repeat([]byte("f"), 2*layout.BlockSize+9)); err != nil {
				t.Fatal(err)
			}
			if err := live.WriteFile("/g", []byte("replaced by the rename")); err != nil {
				t.Fatal(err)
			}
			mustFlush(t, live)
			base := d.Snapshot() // what the second file system starts from
			if err := tc.op(live); err != nil {
				t.Fatal(err)
			}
			img := nv.Bytes()
			recs, err := decodeNVRecords(img)
			if err != nil || len(recs) != 1 || recs[0].kind != tc.kind {
				t.Fatalf("NVRAM holds %+v (%v), want one record of kind %d", recs, err, tc.kind)
			}
			want, wantLinks := modelOf(t, live)
			wantRep, err := live.Check()
			if err != nil {
				t.Fatal(err)
			}

			d2 := disk.FromSnapshot(base)
			opts2 := testOptions()
			opts2.NVRAM = NewNVRAM(1 << 20)
			for _, pass := range []string{"replay", "replay over its own effect"} {
				if err := opts2.NVRAM.Restore(img); err != nil {
					t.Fatal(err)
				}
				fs2, err := Mount(d2, opts2)
				if err != nil {
					t.Fatalf("%s: %v", pass, err)
				}
				if err := want.Verify(fs2); err != nil {
					t.Fatalf("%s: %v", pass, err)
				}
				got, gotLinks := modelOf(t, fs2)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotLinks, wantLinks) {
					t.Fatalf("%s: tree differs from the live one:\n got %v %v\nwant %v %v",
						pass, got.Dirs, gotLinks, want.Dirs, wantLinks)
				}
				rep, err := fs2.Check()
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Problems) != 0 || len(wantRep.Problems) != 0 || rep.Files != wantRep.Files {
					t.Fatalf("%s: Check %d files %v, live %d files %v", pass,
						rep.Files, rep.Problems, wantRep.Files, wantRep.Problems)
				}
				if n := opts2.NVRAM.Pending(); n != 0 {
					t.Fatalf("%s: %d records left in the NVRAM", pass, n)
				}
				d2.Crash() // the replay's flush is on disk; the next pass meets it
				d2.Reopen()
			}
		})
	}
}

// TestReplayDeviceErrorFailsMount: a record whose replay needs a block the
// device cannot deliver fails the mount, names the record, and leaves the
// NVRAM as it was for a later attempt on a repaired device.
func TestReplayDeviceErrorFailsMount(t *testing.T) {
	nv := NewNVRAM(1 << 20)
	opts := testOptions()
	opts.NVRAM = nv
	fs, d := newTestFS(t, 2048, opts)
	if err := fs.WriteFile("/f", bytes.Repeat([]byte("o"), 2*layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, fs)
	_, addr := dataBlockAddr(t, fs, "/f", 1)
	if err := fs.Create("/ok"); err != nil {
		t.Fatal(err)
	}
	// A partial-block overwrite: its replay must read block 1 first.
	if _, err := fs.WriteAt("/f", layout.BlockSize+10, []byte("patch")); err != nil {
		t.Fatal(err)
	}
	pending, used := nv.Pending(), nv.Used()
	d.Crash()
	d.Reopen()
	if err := d.InjectFault(disk.Fault{Kind: disk.FaultReadError, Addr: addr}); err != nil {
		t.Fatal(err)
	}
	_, err := Mount(d, opts)
	if !errors.Is(err, disk.ErrMediaRead) || !strings.Contains(err.Error(), "nvram replay 1 (/f)") {
		t.Fatalf("Mount = %v, want a media read error naming record 1 (/f)", err)
	}
	if nv.Pending() != pending || nv.Used() != used {
		t.Fatalf("failed replay left %d records / %d bytes in the NVRAM, want %d / %d",
			nv.Pending(), nv.Used(), pending, used)
	}
}

// TestWriteFileNoSpaceAfterCreateDoesNotDegrade pins the scope of the
// torn-dirlog bracket inside WriteFile: only the create sits in it. A
// WriteFile that creates its file and then runs out of space writing the
// contents leaves a valid file and a healthy file system.
func TestWriteFileNoSpaceAfterCreateDoesNotDegrade(t *testing.T) {
	opts := testOptions()
	opts.CleanLowWater = 2
	opts.CleanHighWater = 3
	fs, _ := newTestFS(t, 1024, opts) // ~4 MB disk, 128 KB segments
	// More than one write buffer per call, so the out-of-space flush is
	// the one inside the data write, after the create.
	payload := bytes.Repeat([]byte("x"), 40*layout.BlockSize)
	var path string
	var err error
	for i := 0; err == nil; i++ {
		path = fmt.Sprintf("/f%04d", i)
		err = fs.WriteFile(path, payload)
	}
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("filling the disk ended with %v, want ErrNoSpace", err)
	}
	got, rerr := fs.ReadFile(path)
	if rerr != nil {
		t.Fatalf("the failed WriteFile did not get as far as its create: %v", rerr)
	}
	if len(got) > len(payload) {
		t.Fatalf("the failed WriteFile left %d bytes of a %d-byte payload", len(got), len(payload))
	}
	if fs.Degraded() {
		t.Fatalf("degraded by a content write that ran out of space: %s", fs.DegradedReason())
	}
}

// TestAllocsWriteAt pins that one 8 KB WriteAt allocates nothing once the
// file's blocks are in the dirty cache: the prepared write and its two
// block buffers stay on do's stack, and the payload is not copied again,
// with or without an NVRAM (whose append copies into its own buffer,
// amortised below one allocation per record). In the "absorbed" case
// the op is WriteAt + Sync, and the absorbed Sync, which returns at the
// NVRAM record without starting a flush, allocates nothing either.
func TestAllocsWriteAt(t *testing.T) {
	for _, nvram := range []string{"false", "true", "absorbed"} {
		t.Run("nvram="+nvram, func(t *testing.T) {
			opts := testOptions()
			if nvram != "false" {
				opts.NVRAM = NewNVRAM(8 << 20)
			}
			absorbed := nvram == "absorbed"
			fs, _ := newTestFS(t, 2048, opts)
			if err := fs.Create("/f"); err != nil {
				t.Fatal(err)
			}
			data := bytes.Repeat([]byte("w"), 2*layout.BlockSize)
			write := func() {
				if _, err := fs.WriteAt("/f", 0, data); err != nil {
					t.Fatal(err)
				}
				if absorbed {
					if err := fs.Sync(); err != nil {
						t.Fatal(err)
					}
				}
			}
			write()
			if avg := testing.AllocsPerRun(200, write); avg != 0 {
				t.Fatalf("8 KB WriteAt (+ Sync when absorbed) allocates %.0f times per op, want 0", avg)
			}
		})
	}
}
