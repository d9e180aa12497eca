package core

import (
	"fmt"
	"sort"

	"repro/internal/layout"
)

// inodeMap is the in-memory inode map (Section 3.1). It caches the whole
// table ("inode maps are compact enough to keep the active portions cached
// in main memory"), tracks which map blocks are dirty, and remembers the
// log address of each map block for the checkpoint region.
type inodeMap struct {
	entries []layout.ImapEntry
	// blockAddr[i] is the log address of map block i, or NilAddr if the
	// block has never been written (all its entries unallocated).
	blockAddr []int64
	dirty     map[int]bool
}

func newInodeMap(maxInodes int) *inodeMap {
	nblocks := (maxInodes + layout.ImapEntriesPerBlock - 1) / layout.ImapEntriesPerBlock
	m := &inodeMap{
		entries:   make([]layout.ImapEntry, nblocks*layout.ImapEntriesPerBlock),
		blockAddr: make([]int64, nblocks),
		dirty:     make(map[int]bool),
	}
	for i := range m.entries {
		m.entries[i].Addr = layout.NilAddr
	}
	for i := range m.blockAddr {
		m.blockAddr[i] = layout.NilAddr
	}
	return m
}

func (m *inodeMap) maxInodes() int { return len(m.entries) }

func (m *inodeMap) blockOf(inum uint32) int { return int(inum) / layout.ImapEntriesPerBlock }

func (m *inodeMap) get(inum uint32) layout.ImapEntry {
	if int(inum) >= len(m.entries) {
		return layout.ImapEntry{Addr: layout.NilAddr}
	}
	return m.entries[inum]
}

// setLocation records that inum's inode now lives at (addr, slot).
func (m *inodeMap) setLocation(inum uint32, addr int64, slot uint16) {
	e := &m.entries[inum]
	e.Addr = addr
	e.Slot = slot
	m.dirty[m.blockOf(inum)] = true
}

// setVersion updates the file's version number (incremented when a file
// is deleted or truncated to length zero, Section 3.3).
func (m *inodeMap) setVersion(inum uint32, version uint32) {
	m.entries[inum].Version = version
	m.dirty[m.blockOf(inum)] = true
}

func (m *inodeMap) setAtime(inum uint32, atime uint64) {
	m.entries[inum].Atime = atime
	m.dirty[m.blockOf(inum)] = true
}

// free deallocates the inum, keeping its version so that stale log blocks
// carrying the old uid are recognized as dead.
func (m *inodeMap) free(inum uint32) {
	e := &m.entries[inum]
	e.Addr = layout.NilAddr
	e.Slot = 0
	m.dirty[m.blockOf(inum)] = true
}

// markDirty forces map block i to be rewritten at the next checkpoint
// (used when the cleaner copies a live map block forward).
func (m *inodeMap) markDirty(i int) { m.dirty[i] = true }

// encodeBlock serializes map block i from the in-memory table.
func (m *inodeMap) encodeBlock(i int) ([]byte, error) {
	first := i * layout.ImapEntriesPerBlock
	return layout.EncodeImapBlock(uint32(first), m.entries[first:first+layout.ImapEntriesPerBlock])
}

// loadBlock installs a decoded map block into the table.
func (m *inodeMap) loadBlock(buf []byte, expectBlock int) error {
	first, entries, err := layout.DecodeImapBlock(buf)
	if err != nil {
		return err
	}
	if int(first) != expectBlock*layout.ImapEntriesPerBlock || len(entries) != layout.ImapEntriesPerBlock {
		return fmt.Errorf("%w: imap block covers inum %d (want %d)", ErrCorrupt, first, expectBlock*layout.ImapEntriesPerBlock)
	}
	copy(m.entries[first:], entries)
	return nil
}

// dirtyBlocks returns the sorted list of dirty map block indices.
func (m *inodeMap) dirtyBlocks() []int {
	out := make([]int, 0, len(m.dirty))
	for i := range m.dirty {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// cleanBlocks counts the map blocks in the log that are not dirty: what a
// cleaning pass can still add to the next checkpoint.
func (m *inodeMap) cleanBlocks() int {
	n := 0
	for i, addr := range m.blockAddr {
		if addr != layout.NilAddr && !m.dirty[i] {
			n++
		}
	}
	return n
}

func (m *inodeMap) clearDirty() { m.dirty = make(map[int]bool) }
