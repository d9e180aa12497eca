package core

import (
	"fmt"

	"repro/internal/layout"
)

// usageTable is the in-memory segment usage table (Section 3.6): for each
// segment, the number of live bytes still in it and the most recent
// modified time of any block in it. The cleaner consults it to choose
// segments; a segment whose live count falls to zero can be reused
// without cleaning.
type usageTable struct {
	entries   []layout.SegUsage
	blockAddr []int64 // log address of each usage-table block
	segBytes  int64   // segment size in bytes
}

func newUsageTable(nsegs int, segBytes int64) *usageTable {
	nblocks := (nsegs + layout.SegUsagePerBlock - 1) / layout.SegUsagePerBlock
	t := &usageTable{
		entries:   make([]layout.SegUsage, nblocks*layout.SegUsagePerBlock),
		blockAddr: make([]int64, nblocks),
		segBytes:  segBytes,
	}
	for i := range t.blockAddr {
		t.blockAddr[i] = layout.NilAddr
	}
	return t
}

func (t *usageTable) numBlocks() int { return len(t.blockAddr) }

func (t *usageTable) get(seg int64) layout.SegUsage { return t.entries[seg] }

// utilization returns the fraction of the segment's bytes that are live.
func (t *usageTable) utilization(seg int64) float64 {
	return float64(t.entries[seg].LiveBytes) / float64(t.segBytes)
}

// addLive adjusts the live-byte count of a segment. Negative deltas
// record blocks dying (overwrites, deletes); positive deltas record new
// blocks written into the segment.
func (t *usageTable) addLive(seg int64, delta int64) error {
	e := &t.entries[seg]
	n := int64(e.LiveBytes) + delta
	if n < 0 || n > t.segBytes {
		return fmt.Errorf("%w: segment %d live bytes %d%+d out of range", ErrCorrupt, seg, e.LiveBytes, delta)
	}
	e.LiveBytes = uint32(n)
	return nil
}

// noteWrite records a write into the segment at logical time now and
// marks it dirty (holding log data).
func (t *usageTable) noteWrite(seg int64, now uint64) {
	e := &t.entries[seg]
	if now > e.LastWrite {
		e.LastWrite = now
	}
	e.Flags |= layout.SegFlagDirty
}

// markClean resets a segment to the clean state.
func (t *usageTable) markClean(seg int64) {
	t.entries[seg] = layout.SegUsage{}
}

// setActive flags or unflags the segment as the current log head.
func (t *usageTable) setActive(seg int64, active bool) {
	if active {
		t.entries[seg].Flags |= layout.SegFlagActive
	} else {
		t.entries[seg].Flags &^= layout.SegFlagActive
	}
}

func (t *usageTable) isClean(seg int64) bool {
	e := t.entries[seg]
	return e.Flags == 0 && e.LiveBytes == 0
}

// encodeBlock serializes usage-table block i into buf.
func (t *usageTable) encodeBlock(buf []byte, i int) error {
	first := i * layout.SegUsagePerBlock
	return layout.EncodeSegUsageBlock(buf, uint32(first), t.entries[first:first+layout.SegUsagePerBlock])
}

// loadBlock installs a decoded usage-table block.
func (t *usageTable) loadBlock(buf []byte, expectBlock int) error {
	first, entries, err := layout.DecodeSegUsageBlock(buf)
	if err != nil {
		return err
	}
	if int(first) != expectBlock*layout.SegUsagePerBlock || len(entries) != layout.SegUsagePerBlock {
		return fmt.Errorf("%w: usage block covers segment %d (want %d)", ErrCorrupt, first, expectBlock*layout.SegUsagePerBlock)
	}
	copy(t.entries[first:], entries)
	return nil
}
