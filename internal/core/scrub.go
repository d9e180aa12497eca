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

// Scrub walks every live block (forEachLiveBlock: each file's data and
// indirect blocks, every allocated inode's block, the inode map, segment
// usage and live directory-log blocks), reading each from disk (bypassing
// the read cache) and verifying it against the checksum its segment summary
// holds. An inode block's error names the lowest inum it holds.
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
	blk := fs.bpool.Get()
	defer fs.bpool.Put(blk)
	report := func(addr int64, ino uint32, offset int64, kind string, err error) {
		fs.tr.Add(obs.CtrScrubErrors, 1)
		r.Errors = append(r.Errors, ScrubError{
			Addr: addr, Ino: ino, Offset: offset, Kind: kind,
			Err: attributeCorruption(err, ino, offset),
		})
	}
	// An inode that does not load is reported by its block's visit (or the
	// imap entry is wrong, which Check reports): nothing below it can be
	// walked. A data walk that cannot load an indirect block cannot visit the
	// blocks it points at; the indirect walk fails only where it did.
	_ = fs.forEachLiveBlock(fs.liveFiles(nil, func(inum uint32, what string, err error) error {
		if what == "block walk" {
			report(-1, inum, -1, "indirect", err)
		}
		return nil
	}), func(kind layout.BlockKind, inum uint32, i int, addr int64) {
		r.Blocks++
		fs.tr.Add(obs.CtrScrubBlocks, 1)
		if err := fs.readVerified(addr, blk); err != nil {
			offset, name := int64(-1), kind.String()
			switch kind {
			case layout.KindData:
				offset = int64(i) * layout.BlockSize
			case layout.KindSegUsage:
				name = "usage"
			}
			report(addr, inum, offset, name, err)
		}
	})

	r.Quarantined = fs.QuarantinedSegments()
	r.Degraded = fs.degraded.Load()
	return r, nil
}
