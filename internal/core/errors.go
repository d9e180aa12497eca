package core

import (
	"errors"
	"fmt"

	"repro/internal/disk"
)

// Errors returned by file system operations.
var (
	// ErrNotFound reports that a path component does not exist.
	ErrNotFound = errors.New("lfs: file not found")
	// ErrExists reports that a path already exists.
	ErrExists = errors.New("lfs: file exists")
	// ErrNotDir reports that a path component is not a directory.
	ErrNotDir = errors.New("lfs: not a directory")
	// ErrIsDir reports a file operation applied to a directory.
	ErrIsDir = errors.New("lfs: is a directory")
	// ErrNotEmpty reports removal of a non-empty directory.
	ErrNotEmpty = errors.New("lfs: directory not empty")
	// ErrNoSpace reports that no clean segments remain even after cleaning.
	ErrNoSpace = errors.New("lfs: no space left on device")
	// ErrNoInodes reports that the inode table is exhausted.
	ErrNoInodes = errors.New("lfs: out of inodes")
	// ErrTooManyLinks reports a Link that would overflow the inode's
	// 16-bit reference count.
	ErrTooManyLinks = errors.New("lfs: too many links")
	// ErrFileTooBig reports a write beyond the maximum file size.
	ErrFileTooBig = errors.New("lfs: file too large")
	// ErrUnmounted reports an operation on an unmounted file system.
	ErrUnmounted = errors.New("lfs: file system is unmounted")
	// ErrNoCheckpoint reports that neither checkpoint region is valid.
	ErrNoCheckpoint = errors.New("lfs: no valid checkpoint region")
	// ErrBadPath reports a malformed path.
	ErrBadPath = errors.New("lfs: bad path")
	// ErrCorrupt reports an on-disk structure that failed validation.
	ErrCorrupt = errors.New("lfs: corrupt file system structure")
	// ErrDegraded reports a mutating operation on a file system that has
	// dropped into degraded read-only mode after unrecoverable metadata
	// damage. Reads of unaffected files keep working; writes fail fast.
	ErrDegraded = errors.New("lfs: degraded read-only mode (unrecoverable metadata fault)")
)

// ErrMediaRead re-exports the device-level sentinel for callers that only
// import the core package: errors.Is(err, ErrMediaRead) matches a read
// that kept failing after the bounded retry budget.
var ErrMediaRead = disk.ErrMediaRead

// ErrMediaWrite is the write-side twin of ErrMediaRead: a device write
// that kept failing after the bounded retry budget. Callers rarely see it
// — the write path relocates refused log batches and redirects refused
// checkpoints — so it surfaces only wrapped in degrade-path errors, once
// there was nothing left to relocate into.
var ErrMediaWrite = disk.ErrMediaWrite

// ErrCorrupted reports a block whose contents failed checksum
// verification against the segment summary (or its own self-checksum).
// Ino and Offset locate the damage in the file the reader was walking
// (Ino 0 / Offset < 0 when the block is global metadata); Addr is the
// failing disk block. It unwraps to ErrCorrupt, so both
// errors.Is(err, ErrCorrupt) and errors.As(err, *ErrCorrupted) work.
type ErrCorrupted struct {
	Ino    uint32
	Offset int64
	Addr   int64
}

func (e *ErrCorrupted) Error() string {
	if e.Ino == 0 && e.Offset < 0 {
		return fmt.Sprintf("lfs: corrupted metadata block at addr %d", e.Addr)
	}
	return fmt.Sprintf("lfs: corrupted block: ino %d offset %d addr %d", e.Ino, e.Offset, e.Addr)
}

// Unwrap makes errors.Is(err, ErrCorrupt) match.
func (e *ErrCorrupted) Unwrap() error { return ErrCorrupt }
