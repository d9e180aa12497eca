package core

import (
	"fmt"

	"repro/internal/layout"
	"repro/internal/obs"
)

// ScrubError describes one live block that failed verification during a
// scrub: it could not be read even with retries, or its contents do not
// match the checksum recorded when it was written.
type ScrubError struct {
	Addr   int64  // disk address of the bad block
	Ino    uint32 // owning inode, 0 for map-level metadata
	Offset int64  // byte offset within the file for data blocks, -1 otherwise
	Kind   string // "data", "indirect", "inode", "imap", "usage", "dirlog"
	Err    error  // the underlying typed error
}

func (e ScrubError) String() string {
	if e.Ino != 0 && e.Offset >= 0 {
		return fmt.Sprintf("%s block at %d (inum %d offset %d): %v", e.Kind, e.Addr, e.Ino, e.Offset, e.Err)
	}
	if e.Ino != 0 {
		return fmt.Sprintf("%s block at %d (inum %d): %v", e.Kind, e.Addr, e.Ino, e.Err)
	}
	return fmt.Sprintf("%s block at %d: %v", e.Kind, e.Addr, e.Err)
}

// ScrubReport summarizes a scrub pass.
type ScrubReport struct {
	Blocks      int64 // live blocks visited
	Errors      []ScrubError
	Quarantined []int64 // segments quarantined as of scrub completion
	Degraded    bool    // whether the file system is in degraded mode
}

// Scrub walks every live block — the inode map, segment usage and live
// directory-log blocks, every allocated inode's block, and each file's
// indirect and data blocks — reading each from disk (bypassing the read
// cache) and verifying it against the checksum its segment summary holds.
// Detected corruption quarantines the affected segment; every problem is
// reported rather than only the first, so a scrub gives the full damage
// picture. The file system keeps running: scrub is an online operation.
func (fs *FS) Scrub() (*ScrubReport, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.mounted {
		return nil, ErrUnmounted
	}
	// Flush so the on-disk state covers everything written so far; a
	// degraded file system cannot write, so its log is scrubbed as-is.
	if !fs.degraded.Load() {
		if err := fs.flushLog(); err != nil {
			return nil, err
		}
	}

	r := &ScrubReport{}
	visit := func(addr int64, ino uint32, offset int64, kind string) {
		r.Blocks++
		fs.tr.Add(obs.CtrScrubBlocks, 1)
		buf, err := fs.readBlockRetry(addr)
		if err == nil {
			err = fs.verifyBlock(addr, buf)
		}
		if err != nil {
			fs.tr.Add(obs.CtrScrubErrors, 1)
			r.Errors = append(r.Errors, ScrubError{
				Addr: addr, Ino: ino, Offset: offset, Kind: kind,
				Err: attributeCorruption(err, ino, offset),
			})
		}
	}

	fs.forEachCheckpointBlock(func(kind layout.BlockKind, _ int, addr int64) {
		name := kind.String()
		if kind == layout.KindSegUsage {
			name = "usage"
		}
		visit(addr, 0, -1, name)
	})

	seenInoBlocks := make(map[int64]bool)
	for inum32 := 0; inum32 < fs.imap.maxInodes(); inum32++ {
		inum := uint32(inum32)
		e := fs.imap.get(inum)
		if !e.Allocated() {
			continue
		}
		if !seenInoBlocks[e.Addr] {
			seenInoBlocks[e.Addr] = true
			visit(e.Addr, inum, -1, "inode")
		}
		mi, err := fs.loadInode(inum)
		if err != nil {
			// The inode itself is unreadable; its block was already
			// reported by the visit above (or the imap entry is wrong,
			// which Check reports). Nothing below it can be walked.
			continue
		}
		werr := fs.forEachIndirectAddr(mi, func(addr int64) error {
			visit(addr, inum, -1, "indirect")
			return nil
		})
		if werr == nil {
			werr = fs.forEachBlockAddr(mi, func(bn uint32, addr int64) error {
				visit(addr, inum, int64(bn)*layout.BlockSize, "data")
				return nil
			})
		}
		if werr != nil {
			// An indirect block needed to enumerate the file could not be
			// loaded; the blocks it points at cannot be visited.
			fs.tr.Add(obs.CtrScrubErrors, 1)
			r.Errors = append(r.Errors, ScrubError{
				Addr: -1, Ino: inum, Offset: -1, Kind: "indirect",
				Err: attributeCorruption(werr, inum, -1),
			})
		}
	}

	r.Quarantined = fs.QuarantinedSegments()
	r.Degraded = fs.degraded.Load()
	return r, nil
}
