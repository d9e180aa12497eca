package core

import (
	"maps"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/disk"
	"repro/internal/layout"
)

// TestRepairPassJoin runs the repair pass over crafted directory-log tails,
// each against directory /d as the tail's torn last flush left it, and
// checks the entries and reference counts it leaves. The cases are the ones
// where the pass's name index (dirNames) must be dropped and rebuilt, or
// must answer as dirIndex does.
//
// A file named ghost... has an inode that never reached the log; every
// other file is a real one created in /d before /d's entries are replaced
// with the case's.
func TestRepairPassJoin(t *testing.T) {
	type ent struct{ name, file string }
	type rec struct {
		op          layout.DirOpCode
		dir         string // "" is /d; otherwise a file, named like one
		name, file  string
		nlink       uint16
		dir2, name2 string // rename only
	}
	const (
		create = layout.DirOpCreate
		link   = layout.DirOpLink
		rename = layout.DirOpRename
		unlink = layout.DirOpUnlink
	)
	cases := []struct {
		name  string
		dir   []ent             // /d's entries as the tail left them
		tail  []rec             // the records, in sequence order
		want  []ent             // /d's entries after the pass
		nlink map[string]uint16 // each file's count after the pass; 0: freed
	}{{
		name: "an entry removed and its name re-created",
		dir:  []ent{{"a", "A"}, {"x", "X"}, {"b", "B"}},
		tail: []rec{
			{op: create, name: "a", file: "A", nlink: 1},
			{op: unlink, name: "x", file: "X"},
			{op: create, name: "x", file: "N", nlink: 1},
			{op: link, name: "b", file: "B", nlink: 2},
		},
		want:  []ent{{"a", "A"}, {"b", "B"}, {"x", "N"}},
		nlink: map[string]uint16{"A": 1, "B": 2, "N": 1, "X": 0},
	}, {
		name: "a create whose inode never reached the log",
		dir:  []ent{{"a", "A"}, {"g", "ghost"}, {"b", "B"}},
		tail: []rec{
			{op: create, name: "a", file: "A", nlink: 1},
			{op: create, name: "g", file: "ghost", nlink: 1},
			{op: create, name: "b", file: "B", nlink: 1},
			{op: create, name: "c", file: "C", nlink: 1},
		},
		want:  []ent{{"a", "A"}, {"b", "B"}, {"c", "C"}},
		nlink: map[string]uint16{"A": 1, "B": 1, "C": 1},
	}, {
		name: "an undone rename, then an unlink of the displaced entry",
		dir:  []ent{{"a", "A"}, {"f", "F"}},
		tail: []rec{
			{op: rename, name: "f", file: "F", nlink: 1, dir2: "ghostdir", name2: "g"},
			{op: unlink, dir: "ghostdir", name: "g", file: "F"},
			{op: create, name: "b", file: "B", nlink: 1},
		},
		want:  []ent{{"a", "A"}, {"b", "B"}},
		nlink: map[string]uint16{"A": 1, "B": 1, "F": 0},
	}, {
		name: "a corrupt directory holding a name twice: the first entry wins",
		dir:  []ent{{"x", "X"}, {"y", "Y"}, {"x", "X2"}},
		tail: []rec{
			{op: link, name: "x", file: "X", nlink: 1},
			{op: unlink, name: "x", file: "X"},
			{op: create, name: "x", file: "X2", nlink: 1},
		},
		want:  []ent{{"y", "Y"}, {"x", "X2"}},
		nlink: map[string]uint16{"X": 0, "X2": 1, "Y": 1},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := testOptions()
			opts.NoGroupCommit = true
			fs, _ := newTestFS(t, 4096, opts)
			if err := fs.Mkdir("/d"); err != nil {
				t.Fatal(err)
			}
			info, err := fs.Stat("/d")
			if err != nil {
				t.Fatal(err)
			}
			d := info.Inum
			type file struct{ inum, version uint32 }
			files := map[string]file{}
			ghost := fs.nextInum + 100
			of := func(name string) file {
				if f, ok := files[name]; ok {
					return f
				}
				if strings.HasPrefix(name, "ghost") {
					files[name] = file{ghost, 1}
					ghost++
				} else {
					if err := fs.WriteFile("/d/"+name, []byte(name)); err != nil {
						t.Fatal(err)
					}
					info, err := fs.Stat("/d/" + name)
					if err != nil {
						t.Fatal(err)
					}
					files[name] = file{info.Inum, info.Version}
				}
				return files[name]
			}
			entries := func(es []ent) []layout.DirEntry {
				var out []layout.DirEntry
				for _, e := range es {
					out = append(out, layout.DirEntry{Inum: of(e.file).inum, Name: strings.Clone(e.name)})
				}
				return out
			}
			var ops []*layout.DirOp
			for i, r := range tc.tail {
				f := of(r.file)
				op := &layout.DirOp{Seq: uint64(i), Op: r.op, Dir: d, Name: strings.Clone(r.name),
					Inum: f.inum, Version: f.version, NewNlink: r.nlink, Name2: strings.Clone(r.name2)}
				if r.dir != "" {
					op.Dir = of(r.dir).inum
				}
				if r.dir2 != "" {
					op.Dir2 = of(r.dir2).inum
				}
				ops = append(ops, op)
			}
			for name := range tc.nlink {
				of(name)
			}
			torn, want := entries(tc.dir), entries(tc.want)
			if err := fs.Sync(); err != nil { // an inode is allocated once it is in the log
				t.Fatal(err)
			}

			fs.mu.Lock()
			defer fs.mu.Unlock()
			if err := fs.saveDir(d, torn, 0); err != nil {
				t.Fatal(err)
			}
			if err := fs.applyDirOps(ops); err != nil {
				t.Fatal(err)
			}
			got, err := fs.loadDir(d)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("/d after the repair pass: %v, want %v", got, want)
			}
			// The pass kept what it wrote: /d decoded afresh reads the same.
			delete(fs.dirCache, d)
			if again, err := fs.loadDir(d); err != nil || !slices.Equal(again, want) {
				t.Fatalf("/d decoded from its file: %v, %v; want %v", again, err, want)
			}
			// A name the pass added is its own string, not a view of the
			// dirlog record it came from.
			for _, e := range got {
				for _, op := range ops {
					if e.Name == op.Name && unsafe.StringData(e.Name) == unsafe.StringData(op.Name) {
						t.Errorf("entry %q shares its bytes with record %d's name", e.Name, op.Seq)
					}
				}
			}
			for name, n := range tc.nlink {
				f := files[name]
				if e := fs.imap.get(f.inum); n == 0 {
					if e.Allocated() && e.Version == f.version {
						t.Errorf("file %s (inum %d) survived the pass, want it freed", name, f.inum)
					}
				} else if mi, err := fs.loadInode(f.inum); err != nil {
					t.Errorf("file %s (inum %d): %v", name, f.inum, err)
				} else if mi.ino.Nlink != n {
					t.Errorf("file %s (inum %d): nlink %d, want %d", name, f.inum, mi.ino.Nlink, n)
				}
			}
		})
	}
}

// TestRollForwardLeavesFirstRefsAlone pins what lets Mount keep the map its
// first rebuildInoBlockRefs made instead of copying it: roll-forward does not
// edit that map. A mount whose usage accounting meets an unreadable block
// degrades but applies the whole tail, and then hands the map back as
// fs.inoBlockRefs, so it must still hold the references of the
// checkpoint's inode map — which a mount without roll-forward computes.
func TestRollForwardLeavesFirstRefsAlone(t *testing.T) {
	opts := testOptions()
	opts.NoGroupCommit = true
	fs, d := newTestFS(t, 4096, opts)
	for _, dir := range []string{"/a", "/b"} {
		if err := fs.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
	}
	write := func(path string) {
		if err := fs.WriteFile(path, content(path, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"/b/f", "/b/g"} {
		write(p)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	write("/a/x") // alone in its flush with /a: their inode block holds nothing else
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	inumA, err := fs.resolve("/a")
	if err != nil {
		t.Fatal(err)
	}
	old := fs.imap.get(inumA).Addr
	for _, p := range []string{"/a/y", "/b/f", "/b/h", "/b/g"} { // every inode moves
		write(p)
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	d.Crash()
	d.Reopen()
	snap := d.Snapshot()

	ckpt := opts
	ckpt.NoRollForward = true
	base, err := Mount(disk.FromSnapshot(snap), ckpt)
	if err != nil {
		t.Fatal(err)
	}
	want := maps.Clone(base.inoBlockRefs)
	if err := base.Unmount(); err != nil {
		t.Fatal(err)
	}

	d2 := disk.FromSnapshot(snap)
	if err := d2.InjectFault(disk.Fault{Kind: disk.FaultReadError, Addr: old}); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(d2, faultTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !fs2.Degraded() {
		t.Fatal("mount not degraded; the test needs the map the first rebuild made")
	}
	if !maps.Equal(fs2.inoBlockRefs, want) {
		t.Fatalf("roll-forward edited the first rebuild's map: %v, the checkpoint's inode map gives %v", fs2.inoBlockRefs, want)
	}
	fs2.rebuildInoBlockRefs()
	if maps.Equal(fs2.inoBlockRefs, want) {
		t.Fatal("roll-forward moved no inode; the test shows nothing")
	}
}
