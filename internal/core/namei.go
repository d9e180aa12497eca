package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/layout"
)

// FileInfo describes a file, as returned by Stat.
type FileInfo struct {
	Inum    uint32
	Version uint32
	IsDir   bool
	Size    int64
	Nlink   int
	Mtime   uint64
	Atime   uint64
}

// pathComponent scans p from offset start and returns the next path
// component (a substring of p, so no allocation) plus the offset to
// resume scanning from. Empty components and "." are skipped; ".." is
// rejected; an over-long component is an error. The end of the path is
// signalled by an empty component.
func pathComponent(p string, start int) (string, int, error) {
	for i := start; i < len(p); {
		j := i
		for j < len(p) && p[j] != '/' {
			j++
		}
		c := p[i:j]
		i = j + 1
		switch c {
		case "", ".":
			continue
		case "..":
			return "", 0, fmt.Errorf("%w: %q", ErrBadPath, p)
		}
		if len(c) > layout.MaxNameLen {
			return "", 0, fmt.Errorf("%w: component too long in %q", ErrBadPath, p)
		}
		return c, i, nil
	}
	return "", len(p), nil
}

// loadDir returns the (cached) entries of directory inum. It may run
// under mu.RLock: concurrent readers that miss together each decode
// the directory, then the first one's result is adopted by the rest.
func (fs *FS) loadDir(inum uint32) ([]layout.DirEntry, error) {
	mi, err := fs.loadInode(inum)
	if err != nil {
		return nil, err
	}
	fs.dirCacheMu.Lock()
	cached := mi.dir
	fs.dirCacheMu.Unlock()
	if cached != nil {
		return *cached, nil
	}
	if mi.ino.Type != layout.FileTypeDir {
		return nil, ErrNotDir
	}
	data := make([]byte, mi.ino.Size)
	if _, err := fs.readAt(mi, 0, data); err != nil {
		return nil, err
	}
	entries, err := layout.DecodeDirectory(data)
	if err != nil {
		return nil, fmt.Errorf("directory %d: %w", inum, err)
	}
	fs.dirCacheMu.Lock()
	if mi.dir == nil {
		mi.dir = &entries
	}
	entries = *mi.dir
	fs.dirCacheMu.Unlock()
	return entries, nil
}

// saveDir rewrites directory inum's contents from entries, of which from
// is the first that differs from the last save (len(entries) when only
// the end moved). The caller holds that index already, so no second image
// of the directory is kept to find it: the stream is encoded and written
// from the block holding that entry's first byte, and appending an entry
// to a large directory dirties one block, not the whole directory.
func (fs *FS) saveDir(inum uint32, entries []layout.DirEntry, from int) error {
	mi, err := fs.loadInode(inum)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		// An emptied directory keeps no entry array (its encoding, zero
		// bytes long, has none either).
		entries = nil
	}
	fs.dirCacheMu.Lock()
	if mi.dir == nil {
		mi.dir = new([]layout.DirEntry)
	}
	*mi.dir = entries
	fs.dirCacheMu.Unlock()
	// The tail is encoded into a pooled block (a longer one grows out of it).
	buf := fs.bpool.Get()
	defer fs.bpool.Put(buf)
	start, data, err := layout.EncodeDirectoryFrom(buf[:0], entries, from)
	if err != nil {
		return err
	}
	end := int64(start + len(data))
	if uint64(end) < mi.ino.Size {
		// A shrinking directory is cut back to the first changed block
		// first, so the rewrite below runs to EOF and reads nothing.
		if err := fs.truncate(mi, int64(start)); err != nil {
			return err
		}
	}
	if len(data) > 0 {
		if _, err := fs.writeAt(mi, int64(start), data); err != nil {
			return err
		}
	}
	return fs.truncate(mi, end)
}

// dirIndex returns the index of the entry called name, or -1.
func dirIndex(entries []layout.DirEntry, name string) int {
	for i, e := range entries {
		if e.Name == name {
			return i
		}
	}
	return -1
}

// lookup finds name in directory dirInum.
func (fs *FS) lookup(dirInum uint32, name string) (uint32, bool, error) {
	entries, err := fs.loadDir(dirInum)
	if err != nil {
		return 0, false, err
	}
	if i := dirIndex(entries, name); i >= 0 {
		return entries[i].Inum, true, nil
	}
	return 0, false, nil
}

// resolve walks path to an inum. Components are consumed straight off
// the path string (pathComponent), so resolution allocates nothing —
// this is part of the zero-allocation cached-read contract pinned by
// TestAllocsCachedRead.
func (fs *FS) resolve(path string) (uint32, error) {
	inum := RootInum
	for i := 0; ; {
		name, next, err := pathComponent(path, i)
		if err != nil {
			return 0, err
		}
		if name == "" {
			return inum, nil
		}
		child, ok, err := fs.lookup(inum, name)
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, fmt.Errorf("%w: %q", ErrNotFound, path)
		}
		inum, i = child, next
	}
}

// resolveParent walks to the parent directory of path and returns the
// final name component. Like resolve it allocates nothing: the walk
// looks one component ahead so the last one is returned, not resolved.
func (fs *FS) resolveParent(path string) (uint32, string, error) {
	name, i, err := pathComponent(path, 0)
	if err != nil {
		return 0, "", err
	}
	if name == "" {
		return 0, "", fmt.Errorf("%w: %q has no final component", ErrBadPath, path)
	}
	inum := RootInum
	for {
		peek, j, err := pathComponent(path, i)
		if err != nil {
			return 0, "", err
		}
		if peek == "" {
			return inum, name, nil
		}
		child, ok, err := fs.lookup(inum, name)
		if err != nil {
			return 0, "", err
		}
		if !ok {
			return 0, "", fmt.Errorf("%w: %q", ErrNotFound, path)
		}
		inum, name, i = child, peek, j
	}
}

// logDirOp appends a record to the directory operation log (Section 4.2).
// The record is flushed ahead of the directory and inode blocks it covers.
func (fs *FS) logDirOp(op layout.DirOp) { fs.dirLog.add(op) }

// dirOpLog is the directory operation log: the sequence number the next
// record takes, and the records awaiting the next flush with the count of
// the dirlog blocks stageDirOps will pack them into, kept as they arrive so
// that counting what a flush writes costs O(1) per operation. A flush's
// records are one array of values, which take lets go rather than keep at
// rest: a burst of removes can leave thousands in it.
type dirOpLog struct {
	seq    uint64
	ops    []layout.DirOp
	blocks layout.DirLogCount
}

func (l *dirOpLog) add(op layout.DirOp) {
	op.Seq = l.seq
	l.seq++
	l.ops = append(l.ops, op)
	l.blocks.Add(&op)
}

// take empties the log of its records and returns them.
func (l *dirOpLog) take() []layout.DirOp {
	ops := l.ops
	l.ops, l.blocks = nil, layout.DirLogCount{}
	return ops
}

// torn closes the bracket a directory-modifying call runs in; before is
// dirLogSeq from in front of the call. Such calls are written so that
// everything fallible — path resolution, directory and inode loads,
// block-map preloads — happens before their first logDirOp; if one
// nevertheless fails after logging a record (a disk fault or
// out-of-space inside saveDir's inline flush), the in-memory state is
// half-applied and must never be flushed or checkpointed, so the file
// system drops into sticky degraded read-only mode: reads keep working,
// the torn state dies in memory, and the next mount recovers the last
// consistent on-disk state.
func (fs *FS) torn(before uint64, err error) error {
	if err != nil && fs.dirLog.seq != before {
		fs.degrade("dirlog-torn", fmt.Sprintf("operation failed after logging %d directory-op record(s): %v",
			fs.dirLog.seq-before, err))
	}
	return err
}

// preloadBlockMap faults the file's indirect blocks into the in-memory
// inode so that a subsequent truncate or removal cannot fail on a disk
// read after the operation's directory-op record has been logged.
func (fs *FS) preloadBlockMap(mi *mInode) error {
	return fs.forEachBlockAddr(mi, func(uint32, int64) error { return nil })
}

// createNode allocates an inode of the given type and links it into dir.
// All fallible loads precede the first mutation (see torn).
func (fs *FS) createNode(dirInum uint32, name string, typ uint8) (uint32, error) {
	entries, err := fs.loadDir(dirInum)
	if err != nil {
		return 0, err
	}
	if dirIndex(entries, name) >= 0 {
		return 0, fmt.Errorf("%w: %q", ErrExists, name)
	}
	inum, err := fs.allocInum()
	if err != nil {
		return 0, err
	}
	version := max(fs.imap.get(inum).Version, 1)
	fs.newInode(inum, typ, version)

	fs.logDirOp(layout.DirOp{Op: layout.DirOpCreate, Dir: dirInum, Name: name, Inum: inum, Version: version, NewNlink: 1})
	if err := fs.saveDir(dirInum, append(entries, layout.DirEntry{Inum: inum, Name: name}), len(entries)); err != nil {
		return 0, err
	}
	fs.stats.FilesCreated++
	return inum, nil
}

// Create makes an empty regular file.
func (fs *FS) Create(path string) error {
	_, err := fs.do(&nvRecord{kind: nvCreate, path: path})
	return err
}

// Mkdir makes an empty directory.
func (fs *FS) Mkdir(path string) error {
	_, err := fs.do(&nvRecord{kind: nvMkdir, path: path})
	return err
}

// WriteAt writes data into the file at path at the given offset, creating
// nothing: the file must exist. The returned count is the number of bytes
// actually staged in the file cache — on a mid-operation flush failure it
// reflects exactly what a later successful Sync would make durable.
func (fs *FS) WriteAt(path string, off int64, data []byte) (int, error) {
	return fs.do(&nvRecord{kind: nvWriteAt, path: path, offset: off, data: data})
}

// WriteFile replaces the file's contents with data, creating the file if
// needed (a convenience combining Create, Truncate and WriteAt).
func (fs *FS) WriteFile(path string, data []byte) error {
	_, err := fs.do(&nvRecord{kind: nvWriteFile, path: path, data: data})
	return err
}

// Truncate sets the file's size.
func (fs *FS) Truncate(path string, size int64) error {
	_, err := fs.do(&nvRecord{kind: nvTruncate, path: path, size: size})
	return err
}

// Link creates a new hard link newPath referring to the file at oldPath.
func (fs *FS) Link(oldPath, newPath string) error {
	_, err := fs.do(&nvRecord{kind: nvLink, path: oldPath, path2: newPath})
	return err
}

// Remove unlinks the file or empty directory at path.
func (fs *FS) Remove(path string) error {
	_, err := fs.do(&nvRecord{kind: nvRemove, path: path})
	return err
}

// Rename atomically moves oldPath to newPath, replacing a regular-file
// target if one exists. The directory operation log makes the operation
// atomic across crashes (Section 4.2).
func (fs *FS) Rename(oldPath, newPath string) error {
	_, err := fs.do(&nvRecord{kind: nvRename, path: oldPath, path2: newPath})
	return err
}

// do is the spine of every mutating operation: the public methods above
// only describe themselves in an nvRecord (payload aliased, never
// copied). In order: admission against the kind's block budget, outside
// fs.mu; fs.mu; the mounted and degraded checks; tick; apply; on success
// the NVRAM record and the cleaner epilogue. Whether or not apply
// failed — it may have staged partial state that a later Sync must
// flush — the operation's epoch is closed (opStaged) and its latency
// traced before the lock drops. The int is apply's: bytes staged by a
// WriteAt, zero for every other kind.
func (fs *FS) do(r *nvRecord) (int, error) {
	defer fs.gate.leave(fs.opAdmit(r.budget()))
	// Chop the block-aligned body of a payload into private pooled
	// buffers outside fs.mu, so the staging critical section installs
	// pointers instead of copying. Deferred before the lock, release runs
	// after Unlock and returns whatever an early error left unconsumed.
	prep := fs.prepareWrite(r.offset, r.data)
	defer prep.release(fs.bpool)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.mounted {
		return 0, ErrUnmounted
	}
	if err := fs.failIfDegraded(); err != nil {
		return 0, err
	}
	defer fs.opStaged()
	defer fs.traceOp(nvOpName[r.kind])()
	fs.tick()
	n, err := fs.apply(r, &prep)
	if err != nil {
		return n, err
	}
	if err := fs.nvLog(r); err != nil {
		return n, err
	}
	return n, fs.epilogue()
}

// apply is the one body of each mutating operation, run by do for a live
// call and by replayNVRAM for a record that survived a crash (prep is
// nil there). It assumes fs.mu held and the file system mounted and not
// degraded; it does no admission, tick, NVRAM logging or epilogue. Only
// the call that logs directory-op records sits inside the torn bracket.
func (fs *FS) apply(r *nvRecord, prep *preparedWrite) (int, error) {
	before := fs.dirLog.seq
	switch r.kind {
	case nvCreate, nvMkdir:
		dir, name, err := fs.resolveParent(r.path)
		if err != nil {
			return 0, err
		}
		typ := uint8(layout.FileTypeRegular)
		if r.kind == nvMkdir {
			typ = layout.FileTypeDir
		}
		_, err = fs.createNode(dir, name, typ)
		return 0, fs.torn(before, err)
	case nvWriteAt:
		mi, err := fs.resolveFile(r.path)
		if err != nil {
			return 0, err
		}
		return fs.writeAtPrepared(mi, r.offset, r.data, prep)
	case nvWriteFile:
		if int64(len(r.data)) > int64(layout.MaxFileBlocks)*layout.BlockSize {
			return 0, ErrFileTooBig
		}
		dir, name, err := fs.resolveParent(r.path)
		if err != nil {
			return 0, err
		}
		inum, exists, err := fs.lookup(dir, name)
		if err != nil {
			return 0, err
		}
		if !exists {
			// The create is the only part that logs a directory op; the
			// truncate and write below mutate file content only, so their
			// failure leaves a valid (if partially written) file, not a
			// half-applied namespace change.
			inum, err = fs.createNode(dir, name, layout.FileTypeRegular)
			if err = fs.torn(before, err); err != nil {
				return 0, err
			}
		}
		mi, err := fs.loadInode(inum)
		if err != nil {
			return 0, err
		}
		if mi.ino.Type == layout.FileTypeDir {
			return 0, ErrIsDir
		}
		// Fault the block map in before the truncate so the shrink cannot
		// fail on a disk read halfway through releasing blocks.
		if err := fs.preloadBlockMap(mi); err != nil {
			return 0, err
		}
		if err := fs.truncate(mi, 0); err != nil {
			return 0, err
		}
		if len(r.data) > 0 {
			_, err = fs.writeAtPrepared(mi, 0, r.data, prep)
		}
		return 0, err
	case nvTruncate:
		mi, err := fs.resolveFile(r.path)
		if err != nil {
			return 0, err
		}
		return 0, fs.truncate(mi, r.size)
	case nvRemove:
		dir, name, err := fs.resolveParent(r.path)
		if err != nil {
			return 0, err
		}
		inum, exists, err := fs.lookup(dir, name)
		if err != nil {
			return 0, err
		}
		if !exists {
			return 0, fmt.Errorf("%w: %q", ErrNotFound, r.path)
		}
		return 0, fs.torn(before, fs.unlinkLocked(dir, name, inum))
	case nvRename:
		return 0, fs.torn(before, fs.renameLocked(r.path, r.path2))
	case nvLink:
		return 0, fs.torn(before, fs.linkLocked(r.path, r.path2))
	default:
		return 0, fmt.Errorf("%w: unknown NVRAM record kind %d", ErrCorrupt, r.kind)
	}
}

// ReadAt reads from the file at path into buf starting at off; it returns
// the number of bytes read (0 at or past end of file). Read-only: runs
// under mu.RLock, concurrently with other readers.
func (fs *FS) ReadAt(path string, off int64, buf []byte) (int, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if !fs.mounted {
		return 0, ErrUnmounted
	}
	fs.readerEnter()
	defer fs.readerExit()
	defer fs.traceOp("read")()
	fs.tick()
	mi, err := fs.resolveFile(path)
	if err != nil {
		return 0, err
	}
	n, err := fs.readAt(mi, off, buf)
	if err != nil {
		return n, err
	}
	fs.setAtime(mi.ino.Inum)
	return n, nil
}

// ReadFile returns the whole contents of the file at path. Read-only:
// runs under mu.RLock, concurrently with other readers.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if !fs.mounted {
		return nil, ErrUnmounted
	}
	fs.readerEnter()
	defer fs.readerExit()
	defer fs.traceOp("read")()
	fs.tick()
	mi, err := fs.resolveFile(path)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, mi.ino.Size)
	if _, err := fs.readAt(mi, 0, buf); err != nil {
		return nil, err
	}
	fs.setAtime(mi.ino.Inum)
	return buf, nil
}

// setAtime records an access time in the inode map. Reads hold only
// mu.RLock, so the map mutation is guarded by imapMu.
func (fs *FS) setAtime(inum uint32) {
	now := fs.ticks.Load()
	fs.imapMu.Lock()
	fs.imap.setAtime(inum, now)
	fs.imapMu.Unlock()
}

// resolveFile resolves path to a regular file's in-memory inode.
func (fs *FS) resolveFile(path string) (*mInode, error) {
	inum, err := fs.resolve(path)
	if err != nil {
		return nil, err
	}
	mi, err := fs.loadInode(inum)
	if err != nil {
		return nil, err
	}
	if mi.ino.Type == layout.FileTypeDir {
		return nil, fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	return mi, nil
}

// Stat describes the file or directory at path. Read-only: runs under
// mu.RLock, concurrently with other readers.
func (fs *FS) Stat(path string) (FileInfo, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if !fs.mounted {
		return FileInfo{}, ErrUnmounted
	}
	fs.readerEnter()
	defer fs.readerExit()
	inum, err := fs.resolve(path)
	if err != nil {
		return FileInfo{}, err
	}
	mi, err := fs.loadInode(inum)
	if err != nil {
		return FileInfo{}, err
	}
	fs.imapMu.Lock()
	e := fs.imap.get(inum)
	fs.imapMu.Unlock()
	return FileInfo{
		Inum:    inum,
		Version: e.Version,
		IsDir:   mi.ino.Type == layout.FileTypeDir,
		Size:    int64(mi.ino.Size),
		Nlink:   int(mi.ino.Nlink),
		Mtime:   mi.ino.Mtime,
		Atime:   e.Atime,
	}, nil
}

// ReadDir lists the entries of the directory at path. Read-only: runs
// under mu.RLock, concurrently with other readers.
func (fs *FS) ReadDir(path string) ([]layout.DirEntry, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if !fs.mounted {
		return nil, ErrUnmounted
	}
	fs.readerEnter()
	defer fs.readerExit()
	inum, err := fs.resolve(path)
	if err != nil {
		return nil, err
	}
	entries, err := fs.loadDir(inum)
	if err != nil {
		return nil, err
	}
	out := make([]layout.DirEntry, len(entries))
	copy(out, entries)
	return out, nil
}

// linkLocked loads everything fallible before its logDirOp (see torn).
func (fs *FS) linkLocked(oldPath, newPath string) error {
	mi, err := fs.resolveFile(oldPath)
	if err != nil {
		return err
	}
	dir, name, err := fs.resolveParent(newPath)
	if err != nil {
		return err
	}
	entries, err := fs.loadDir(dir)
	if err != nil {
		return err
	}
	if dirIndex(entries, name) >= 0 {
		return fmt.Errorf("%w: %q", ErrExists, newPath)
	}
	if mi.ino.Nlink == math.MaxUint16 {
		return fmt.Errorf("%w: %q", ErrTooManyLinks, oldPath)
	}
	inum := mi.ino.Inum
	mi.ino.Nlink++
	fs.markInodeDirty(inum)
	fs.logDirOp(layout.DirOp{Op: layout.DirOpLink, Dir: dir, Name: name, Inum: inum, Version: mi.ino.Version, NewNlink: mi.ino.Nlink})
	return fs.saveDir(dir, append(entries, layout.DirEntry{Inum: inum, Name: name}), len(entries))
}

// unlinkLocked removes the (dir, name) entry and drops one reference from
// inum, deleting the file when the count reaches zero. All fallible loads
// — including the block-map walk a deletion will need — happen before the
// logDirOp (see torn).
func (fs *FS) unlinkLocked(dir uint32, name string, inum uint32) error {
	mi, err := fs.loadInode(inum)
	if err != nil {
		return err
	}
	if mi.ino.Type == layout.FileTypeDir {
		sub, err := fs.loadDir(inum)
		if err != nil {
			return err
		}
		if len(sub) > 0 {
			return fmt.Errorf("%w: %q", ErrNotEmpty, name)
		}
	}
	entries, err := fs.loadDir(dir)
	if err != nil {
		return err
	}
	idx := dirIndex(entries, name) // the caller found name under this hold of fs.mu
	newNlink := mi.ino.Nlink - 1
	if newNlink == 0 {
		if err := fs.preloadBlockMap(mi); err != nil {
			return err
		}
	}
	fs.logDirOp(layout.DirOp{Op: layout.DirOpUnlink, Dir: dir, Name: name, Inum: inum, Version: mi.ino.Version, NewNlink: newNlink})
	if err := fs.saveDir(dir, slices.Delete(entries, idx, idx+1), idx); err != nil {
		return err
	}
	if newNlink == 0 {
		return fs.removeFile(inum)
	}
	mi.ino.Nlink = newNlink
	fs.markInodeDirty(inum)
	return nil
}

// renameLocked resolves and loads everything both halves of the rename
// (the target unlink and the move itself) will touch before the first
// logDirOp, so no disk read can fail between the two records (see
// torn). The later loadDir calls hit the directory cache, which never
// evicts.
func (fs *FS) renameLocked(oldPath, newPath string) error {
	oldDir, oldName, err := fs.resolveParent(oldPath)
	if err != nil {
		return err
	}
	inum, exists, err := fs.lookup(oldDir, oldName)
	if err != nil {
		return err
	}
	if !exists {
		return fmt.Errorf("%w: %q", ErrNotFound, oldPath)
	}
	newDir, newName, err := fs.resolveParent(newPath)
	if err != nil {
		return err
	}
	mi, err := fs.loadInode(inum)
	if err != nil {
		return err
	}
	if _, err := fs.loadDir(oldDir); err != nil {
		return err
	}
	if _, err := fs.loadDir(newDir); err != nil {
		return err
	}
	if target, hasTarget, err := fs.lookup(newDir, newName); err != nil {
		return err
	} else if hasTarget {
		if target == inum && oldDir == newDir && oldName == newName {
			return nil
		}
		tmi, err := fs.loadInode(target)
		if err != nil {
			return err
		}
		if tmi.ino.Type == layout.FileTypeDir {
			return fmt.Errorf("%w: rename over directory %q", ErrIsDir, newPath)
		}
		if err := fs.unlinkLocked(newDir, newName, target); err != nil {
			return err
		}
	}
	fs.logDirOp(layout.DirOp{
		Op: layout.DirOpRename, Dir: oldDir, Name: oldName,
		Inum: inum, Version: mi.ino.Version, NewNlink: mi.ino.Nlink, Dir2: newDir, Name2: newName,
	})
	entries, err := fs.loadDir(oldDir)
	if err != nil {
		return err
	}
	idx := dirIndex(entries, oldName)
	if err := fs.saveDir(oldDir, slices.Delete(entries, idx, idx+1), idx); err != nil {
		return err
	}
	dst, err := fs.loadDir(newDir)
	if err != nil {
		return err
	}
	return fs.saveDir(newDir, append(dst, layout.DirEntry{Inum: inum, Name: newName}), len(dst))
}

// epilogue runs at the end of mutating operations: it starts the cleaner
// when the clean-segment pool drops below the low-water mark
// (Section 3.4), and the cleaning runs to the high-water mark under the
// caller's lock. Nothing here waits or releases fs.mu.
func (fs *FS) epilogue() error {
	if fs.inCleaner || fs.recovering() || fs.cpActive {
		return nil
	}
	if fs.segs.free() < fs.opts.CleanLowWater {
		return fs.cleanUntil(fs.opts.CleanHighWater)
	}
	return nil
}
