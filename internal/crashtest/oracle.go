package crashtest

import (
	"bytes"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
)

// The durability-aware oracle. A crash after k persisted blocks defines a
// window of operation indices [floor, crash]:
//
//   - floor is the last operation whose durability was acknowledged
//     before the cut. What counts as acknowledged depends on the
//     durability model being tested: in the disk model it is the last
//     Sync/Checkpoint that fully persisted (Section 4 guarantees
//     everything acknowledged there survives recovery); in the
//     NVRAM model the commit point moves into the NVRAM, so the
//     "NVRAM survives" arm floors at the last completed operation
//     (every completed op is NVRAM-durable and replayNVRAM must restore
//     it), while the "NVRAM lost" arm floors at the disk epoch the
//     replay observed (core.Durability: the last op covered by a
//     successful flush — an op durable via NVRAM but absent from the
//     disk log falls inside the window, where losing it is legal).
//     The window machinery below is model-agnostic: only which index
//     RunPoint takes as the floor differs per Arm (crashtest.go).
//   - crash is the operation the power cut landed in. Nothing after it
//     ever executed, so no recovered state may postdate it.
//
// Within the window, recovery is free to keep or lose individual
// operations (they were never synced), but only in ways the workload
// actually passed through: every recovered directory entry must be a
// name binding that existed at some instant in the window, and every
// recovered file content must be a byte string that file actually held
// at some instant in the window. Binding and content are checked
// independently because roll-forward recovers them through different
// mechanisms (the directory operation log vs. inode snapshots), so a
// file can legitimately reappear under an old name with newer content —
// e.g. an undone rename whose inode rolled forward. What can never
// happen: content no instant of the workload produced (torn or
// interleaved writes), a binding from before the floor that a synced
// operation had already replaced, or a resurrected file whose removal
// was synced.
//
// The model tracks file identity (creation order), not just paths, so
// that renames carry their content history with them.

type recKind uint8

const (
	rAbsent recKind = iota
	rDir
	rFile
)

func (k recKind) String() string {
	switch k {
	case rAbsent:
		return "absent"
	case rDir:
		return "directory"
	default:
		return "file"
	}
}

// binding is one state a path held: from the end of operation `from`
// (inclusive, -1 = initial state) until the next binding's from.
type binding struct {
	from int
	kind recKind
	file int // file identity when kind == rFile
}

// version is one content a file held, from the end of operation `from`.
type version struct {
	from int
	data []byte
}

// history is the full name-binding and content timeline of a workload.
type history struct {
	paths    map[string][]binding
	contents map[int][]version
}

// buildHistory expands the op list into per-path binding timelines and
// per-file-identity content timelines.
func buildHistory(ops []core.Op) *history {
	h := &history{
		paths:    map[string][]binding{"/": {{from: -1, kind: rDir}}},
		contents: map[int][]version{},
	}
	files := map[string]int{} // live path -> file identity
	data := map[int][]byte{}  // file identity -> current content
	nextID := 0

	bind := func(i int, p string, k recKind, file int) {
		if len(h.paths[p]) == 0 {
			h.paths[p] = []binding{{from: -1, kind: rAbsent}}
		}
		h.paths[p] = append(h.paths[p], binding{from: i, kind: k, file: file})
	}
	setData := func(i, f int, b []byte) {
		data[f] = b
		h.contents[f] = append(h.contents[f], version{from: i, data: b})
	}

	for i, op := range ops {
		switch op.Kind {
		case core.OpCreate:
			f := nextID
			nextID++
			files[op.Path] = f
			bind(i, op.Path, rFile, f)
			setData(i, f, []byte{})
		case core.OpMkdir:
			bind(i, op.Path, rDir, 0)
		case core.OpWrite:
			f := files[op.Path]
			old := data[f]
			need := int(op.Off) + len(op.Data)
			grown := make([]byte, max(need, len(old)))
			copy(grown, old)
			copy(grown[op.Off:], op.Data)
			setData(i, f, grown)
		case core.OpTruncate:
			f := files[op.Path]
			old := data[f]
			cut := make([]byte, op.Size)
			copy(cut, old)
			setData(i, f, cut)
		case core.OpRemove:
			delete(files, op.Path)
			bind(i, op.Path, rAbsent, 0)
		case core.OpRename:
			f := files[op.Path]
			delete(files, op.Path)
			files[op.Path2] = f
			bind(i, op.Path, rAbsent, 0)
			bind(i, op.Path2, rFile, f)
		}
	}
	return h
}

// windowBindings returns the bindings of a path whose effective interval
// intersects [floor, crash]. A binding holds from its own `from` until
// just before the next binding's.
func windowBindings(bs []binding, floor, crash int) []binding {
	var out []binding
	for i, b := range bs {
		next := math.MaxInt
		if i+1 < len(bs) {
			next = bs[i+1].from
		}
		if b.from <= crash && next > floor {
			out = append(out, b)
		}
	}
	return out
}

// windowVersions is windowBindings for a file's content timeline.
func windowVersions(vs []version, floor, crash int) []version {
	var out []version
	for i, v := range vs {
		next := math.MaxInt
		if i+1 < len(vs) {
			next = vs[i+1].from
		}
		if v.from <= crash && next > floor {
			out = append(out, v)
		}
	}
	return out
}

// recState is one path's state in a walked file system: presence and kind
// are known; content unless unread.
type recState struct {
	dir    bool
	data   []byte
	unread bool // the file's read failed typed (tolerant walks only)
}

// tree is a walk of a mounted file system. A strict walk leaves excused,
// blind and typedErrs empty.
type tree struct {
	rec       map[string]recState
	excused   map[string]bool // paths whose stat failed typed
	blind     []string        // paths whose subtree could not be listed
	typedErrs int             // typed failures the walk went past
}

// walkTree enumerates every path of fs through its API; it is the only
// walk of a recovered tree in the package. A strict walk fails on the
// first error. A tolerant walk goes past typed media-fault errors: a file
// whose read fails typed is recorded with unknown content, a path whose
// stat fails typed is excused (and its potential subtree declared blind),
// and a directory whose listing fails typed keeps its own entry but
// declares its subtree blind. Any untyped error fails either walk; the
// tree walked so far comes back with it.
func walkTree(fs *core.FS, tolerant bool) (*tree, error) {
	t := &tree{rec: map[string]recState{}, excused: map[string]bool{}}
	excuse := func(err error) bool {
		if !tolerant || !typedFaultErr(err) {
			return false
		}
		t.typedErrs++
		return true
	}
	var walk func(dir string) error
	walk = func(dir string) error {
		entries, err := fs.ReadDir(dir)
		if err != nil {
			if excuse(err) {
				t.blind = append(t.blind, dir)
				return nil
			}
			return fmt.Errorf("readdir %s: %w", dir, err)
		}
		for _, e := range entries {
			full := dir + "/" + e.Name
			if dir == "/" {
				full = "/" + e.Name
			}
			info, err := fs.Stat(full)
			if err != nil {
				if excuse(err) {
					t.excused[full] = true
					t.blind = append(t.blind, full)
					continue
				}
				return fmt.Errorf("stat %s: %w", full, err)
			}
			if info.IsDir {
				t.rec[full] = recState{dir: true}
				if err := walk(full); err != nil {
					return err
				}
				continue
			}
			data, err := fs.ReadFile(full)
			if err != nil && !excuse(err) {
				return fmt.Errorf("read %s: %w", full, err)
			}
			t.rec[full] = recState{data: data, unread: err != nil}
		}
		return nil
	}
	return t, walk("/")
}

// check verifies the recovered file system against the window [floor,
// crash] of the workload history and returns the first violation found.
// A tolerant check is for recovery mounts that ran against hostile media:
// it enforces the same window, excusing exactly the state the fault makes
// unknowable — unreadable file content, paths that cannot be stat'ed, and
// everything under an unreadable directory — and returns the count of
// excused typed failures alongside. What it still rejects is silent loss:
// a path absent, or readable with content no in-window instant produced,
// when the window says the fault could not have hidden it. A strict check
// excuses nothing.
func (h *history) check(fs *core.FS, floor, crash int, tolerant bool) (int, error) {
	t, err := walkTree(fs, tolerant)
	if err != nil {
		return t.typedErrs, fmt.Errorf("oracle walk: %w", err)
	}
	blinded := func(p string) bool {
		for _, b := range t.blind {
			if b == "/" || strings.HasPrefix(p, b+"/") {
				return true
			}
		}
		return false
	}
	paths := map[string]bool{}
	for p := range h.paths {
		paths[p] = true
	}
	for p := range t.rec {
		paths[p] = true
	}
	for p := range paths {
		if p == "/" || t.excused[p] {
			continue
		}
		bs := h.paths[p]
		if bs == nil {
			bs = []binding{{from: -1, kind: rAbsent}}
		}
		acc := windowBindings(bs, floor, crash)
		got, present := t.rec[p]
		switch {
		case !present:
			if blinded(p) {
				continue // under an unreadable directory: unknowable
			}
			if !hasKind(acc, rAbsent) {
				return t.typedErrs, fmt.Errorf("oracle: %s missing after recovery, but it is %s throughout the window",
					p, describe(acc))
			}
		case got.dir:
			if !hasKind(acc, rDir) {
				return t.typedErrs, fmt.Errorf("oracle: %s recovered as a directory, but the window allows only %s",
					p, describe(acc))
			}
		case got.unread:
			if !hasKind(acc, rFile) {
				return t.typedErrs, fmt.Errorf("oracle: %s recovered as a file, but the window allows only %s",
					p, describe(acc))
			}
		default:
			if err := h.checkFileContent(p, got.data, acc, floor, crash); err != nil {
				return t.typedErrs, err
			}
		}
	}
	return t.typedErrs, nil
}

// checkFileContent verifies that a recovered file's bytes are a content
// some in-window binding's file actually held at some in-window instant.
func (h *history) checkFileContent(p string, got []byte, acc []binding, floor, crash int) error {
	sawFile := false
	for _, b := range acc {
		if b.kind != rFile {
			continue
		}
		sawFile = true
		for _, v := range windowVersions(h.contents[b.file], floor, crash) {
			if bytes.Equal(v.data, got) {
				return nil
			}
		}
	}
	if !sawFile {
		return fmt.Errorf("oracle: %s recovered as a file, but the window allows only %s", p, describe(acc))
	}
	return fmt.Errorf("oracle: %s recovered with %d bytes that match no in-window content of the file(s) bound to it",
		p, len(got))
}

func hasKind(bs []binding, k recKind) bool {
	for _, b := range bs {
		if b.kind == k {
			return true
		}
	}
	return false
}

// describe summarizes acceptable bindings for error messages.
func describe(bs []binding) string {
	if len(bs) == 0 {
		return "nothing"
	}
	parts := make([]string, len(bs))
	for i, b := range bs {
		parts[i] = fmt.Sprintf("%s(since op %d)", b.kind, b.from)
	}
	return strings.Join(parts, ", ")
}
