// Package ffs implements a simulation of the Berkeley Unix Fast File
// System (McKusick et al., 1984), the baseline the LFS paper compares
// against. It runs on the same simulated disk as the log-structured file
// system so the two can be benchmarked head to head.
//
// The simulation reproduces the I/O behaviour that drives the paper's
// comparisons rather than every FFS detail:
//
//   - Data is spread across cylinder groups, each with a fixed inode
//     table and a block bitmap at fixed disk addresses.
//   - File inodes are allocated in their directory's group; directory
//     inodes are spread across groups; data blocks are allocated in the
//     inode's group, contiguously when possible.
//   - Metadata is written synchronously: creating a file writes the
//     file's inode twice (to ease crash recovery), the directory's data
//     block, and the directory's inode — at least five separate seeks
//     per new small file, exactly the pattern Figure 1 counts.
//   - Each dirty data block is written with an individual disk request
//     (the SunOS 4.0.3 behaviour the paper measured), so even logically
//     sequential writes pay per-request rotational latency.
//   - Crash recovery is an fsck-style scan of all metadata on disk.
package ffs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/disk"
	"repro/internal/layout"
)

// Errors mirroring the core package's semantics.
var (
	ErrNotFound  = errors.New("ffs: file not found")
	ErrExists    = errors.New("ffs: file exists")
	ErrNotDir    = errors.New("ffs: not a directory")
	ErrIsDir     = errors.New("ffs: is a directory")
	ErrNotEmpty  = errors.New("ffs: directory not empty")
	ErrNoSpace   = errors.New("ffs: no space left on device")
	ErrNoInodes  = errors.New("ffs: out of inodes")
	ErrBadPath   = errors.New("ffs: bad path")
	ErrUnmounted = errors.New("ffs: file system is unmounted")
	ErrTooBig    = errors.New("ffs: file too large")
	ErrCorrupt   = errors.New("ffs: corrupt structure")
)

// RootInum is the root directory's inode number.
const RootInum uint32 = 1

const ffsMagic uint32 = 0x46465331 // "FFS1"

// Options configure Format.
type Options struct {
	// BlockSize is the file system block size in bytes; it must be a
	// multiple of the device block size. SunOS 4.0.3 used 8 KB
	// (Section 5.1), the default here.
	BlockSize int
	// GroupBlocks is the cylinder group size in file system blocks
	// (default 1024, i.e. 8 MB groups with 8 KB blocks).
	GroupBlocks int
	// InodesPerGroup is the inode table size per group (default 1024).
	InodesPerGroup int
	// WriteBufferBlocks bounds the dirty data cache before write-back
	// (default 64 file system blocks).
	WriteBufferBlocks int
	// MinFreeFraction is the space reserve that keeps the allocator
	// effective; FFS reserves 10% (Section 3.4 of the LFS paper notes
	// "Unix FFS only allows 90% of the disk space to be occupied").
	MinFreeFraction float64
}

func (o Options) withDefaults() Options {
	if o.BlockSize == 0 {
		o.BlockSize = 8192
	}
	if o.GroupBlocks == 0 {
		o.GroupBlocks = 1024
	}
	if o.InodesPerGroup == 0 {
		o.InodesPerGroup = 1024
	}
	if o.WriteBufferBlocks == 0 {
		o.WriteBufferBlocks = 64
	}
	if o.MinFreeFraction == 0 {
		o.MinFreeFraction = 0.10
	}
	return o
}

// group is the in-memory state of one cylinder group.
type group struct {
	bitmap      []bool // data-block allocation, index 0 = first data block
	freeBlocks  int
	freeInodes  int
	inodeInUse  []bool
	lastAlloc   int // rotor for first-fit allocation
	bitmapDirty bool
}

type blockKey struct {
	inum uint32
	bn   uint32
}

// FS is a mounted FFS simulation. All methods are safe for concurrent
// use.
type FS struct {
	mu   sync.Mutex
	dev  *disk.Disk
	opts Options

	fsBlock     int // device blocks per FS block
	ptrsPerBlk  int
	inoPerBlk   int
	groupBlocks int64 // device blocks per group
	dataStart   int64 // first data FS-block index within a group
	ngroups     int

	groups []*group
	inodes map[uint32]*layout.Inode
	// addrOf maps (inum, file block) to an FS-block address; kept in the
	// inode's direct/indirect pointers, with in-memory indirect blocks.
	ind map[uint32]map[uint32]int64 // inum -> file bn -> fs block addr (indirect range)

	dcache      map[blockKey][]byte
	dirtyInodes map[uint32]bool
	dirCache    map[uint32][]layout.DirEntry
	dirBytes    map[uint32][]byte
	indBlk      map[uint32]*indState

	nextDirGroup int
	mounted      bool

	stats Stats
}

// Stats counts FFS activity.
type Stats struct {
	FilesCreated  int64
	FilesDeleted  int64
	SyncWrites    int64 // synchronous metadata writes
	DataWrites    int64 // data block write-backs
	NewDataBytes  int64 // bytes of new file data written to disk
	MetadataBytes int64 // bytes of metadata written to disk
}

// Format initializes an FFS on dev and returns it mounted.
func Format(dev *disk.Disk, opts Options) (*FS, error) {
	opts = opts.withDefaults()
	if opts.BlockSize%dev.BlockSize() != 0 {
		return nil, fmt.Errorf("ffs: block size %d not a multiple of device block %d", opts.BlockSize, dev.BlockSize())
	}
	fs := &FS{
		dev:         dev,
		opts:        opts,
		fsBlock:     opts.BlockSize / dev.BlockSize(),
		inodes:      make(map[uint32]*layout.Inode),
		ind:         make(map[uint32]map[uint32]int64),
		dcache:      make(map[blockKey][]byte),
		dirtyInodes: make(map[uint32]bool),
		dirCache:    make(map[uint32][]layout.DirEntry),
		dirBytes:    make(map[uint32][]byte),
	}
	fs.ptrsPerBlk = opts.BlockSize / 8
	fs.inoPerBlk = opts.BlockSize / layout.InodeSize
	fs.groupBlocks = int64(opts.GroupBlocks) * int64(fs.fsBlock)

	inodeBlocks := (opts.InodesPerGroup + fs.inoPerBlk - 1) / fs.inoPerBlk
	fs.dataStart = int64(1 + inodeBlocks) // bitmap block + inode table
	totalFS := dev.NumBlocks() / int64(fs.fsBlock)
	fs.ngroups = int((totalFS - 1) / int64(opts.GroupBlocks))
	if fs.ngroups < 1 {
		return nil, fmt.Errorf("ffs: device too small")
	}
	dataPerGroup := opts.GroupBlocks - int(fs.dataStart)
	if dataPerGroup <= 0 {
		return nil, fmt.Errorf("ffs: group size %d too small for metadata", opts.GroupBlocks)
	}
	for g := 0; g < fs.ngroups; g++ {
		fs.groups = append(fs.groups, &group{
			bitmap:     make([]bool, dataPerGroup),
			freeBlocks: dataPerGroup,
			freeInodes: opts.InodesPerGroup,
			inodeInUse: make([]bool, opts.InodesPerGroup),
		})
	}

	// Superblock.
	sb := make([]byte, opts.BlockSize)
	le := binary.LittleEndian
	le.PutUint32(sb[0:], ffsMagic)
	le.PutUint32(sb[4:], uint32(opts.BlockSize))
	le.PutUint32(sb[8:], uint32(opts.GroupBlocks))
	le.PutUint32(sb[12:], uint32(opts.InodesPerGroup))
	le.PutUint32(sb[16:], uint32(fs.ngroups))
	if err := fs.writeFSBlock(0, sb); err != nil {
		return nil, err
	}
	fs.mounted = true

	// Root directory in group 0.
	root := layout.NewInode(RootInum, layout.FileTypeDir)
	fs.installInode(root)
	fs.groups[0].inodeInUse[1] = true
	fs.groups[0].freeInodes--
	fs.dirCache[RootInum] = nil
	if err := fs.writeInodeSync(RootInum); err != nil {
		return nil, err
	}
	if err := fs.Sync(); err != nil {
		return nil, err
	}
	return fs, nil
}

func (fs *FS) installInode(ino *layout.Inode) {
	fs.inodes[ino.Inum] = ino
	fs.ind[ino.Inum] = make(map[uint32]int64)
}

// Stats returns a snapshot of the counters.
func (fs *FS) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats
}

// BlockSize returns the file system block size.
func (fs *FS) BlockSize() int { return fs.opts.BlockSize }

// groupOfInum returns the cylinder group holding the inode.
func (fs *FS) groupOfInum(inum uint32) int { return int(inum) / fs.opts.InodesPerGroup }

// fsBlockDevAddr converts an FS-block address to a device block address.
func (fs *FS) fsBlockDevAddr(fsAddr int64) int64 { return fsAddr * int64(fs.fsBlock) }

// writeFSBlock writes one FS block at the FS-block address.
func (fs *FS) writeFSBlock(fsAddr int64, data []byte) error {
	if len(data) != fs.opts.BlockSize {
		return fmt.Errorf("%w: bad FS block size %d", ErrCorrupt, len(data))
	}
	return fs.dev.Write(fs.fsBlockDevAddr(fsAddr), data)
}

// readFSBlock reads one FS block.
func (fs *FS) readFSBlock(fsAddr int64) ([]byte, error) {
	buf := make([]byte, fs.opts.BlockSize)
	if err := fs.dev.Read(fs.fsBlockDevAddr(fsAddr), buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// groupBase returns the FS-block address where group g starts.
func (fs *FS) groupBase(g int) int64 { return 1 + int64(g)*int64(fs.opts.GroupBlocks) }

// inodeBlockAddr returns the FS-block address of the inode table block
// holding inum, plus the slot within it.
func (fs *FS) inodeBlockAddr(inum uint32) (int64, int) {
	g := fs.groupOfInum(inum)
	idx := int(inum) % fs.opts.InodesPerGroup
	return fs.groupBase(g) + 1 + int64(idx/fs.inoPerBlk), idx % fs.inoPerBlk
}

// bitmapAddr returns the FS-block address of group g's bitmap.
func (fs *FS) bitmapAddr(g int) int64 { return fs.groupBase(g) }

// dataBlockAddr converts (group, index within group data area) to an
// FS-block address.
func (fs *FS) dataBlockAddr(g, idx int) int64 {
	return fs.groupBase(g) + fs.dataStart + int64(idx)
}

// writeInodeSync writes the inode table block containing inum to disk
// synchronously, serializing every in-use inode that shares the block.
func (fs *FS) writeInodeSync(inum uint32) error {
	addr, _ := fs.inodeBlockAddr(inum)
	buf := make([]byte, fs.opts.BlockSize)
	g := fs.groupOfInum(inum)
	base := uint32(g*fs.opts.InodesPerGroup) + uint32((int(inum)%fs.opts.InodesPerGroup)/fs.inoPerBlk*fs.inoPerBlk)
	for slot := 0; slot < fs.inoPerBlk; slot++ {
		if ino, ok := fs.inodes[base+uint32(slot)]; ok {
			ino.EncodeTo(buf[slot*layout.InodeSize:])
		}
	}
	fs.stats.SyncWrites++
	fs.stats.MetadataBytes += int64(fs.opts.BlockSize)
	return fs.writeFSBlock(addr, buf)
}

// writeBitmap writes group g's bitmap block.
func (fs *FS) writeBitmap(g int) error {
	buf := make([]byte, fs.opts.BlockSize)
	for i, used := range fs.groups[g].bitmap {
		if used {
			buf[i/8] |= 1 << (i % 8)
		}
	}
	fs.groups[g].bitmapDirty = false
	fs.stats.MetadataBytes += int64(fs.opts.BlockSize)
	return fs.writeFSBlock(fs.bitmapAddr(g), buf)
}

// Unmount flushes everything and marks the file system unusable.
func (fs *FS) Unmount() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.mounted {
		return ErrUnmounted
	}
	if err := fs.syncLocked(); err != nil {
		return err
	}
	fs.mounted = false
	return nil
}

// Sync writes back all dirty data blocks, bitmaps and inodes.
func (fs *FS) Sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.mounted {
		return ErrUnmounted
	}
	return fs.syncLocked()
}

func (fs *FS) syncLocked() error {
	if err := fs.flushData(); err != nil {
		return err
	}
	for g := range fs.groups {
		if fs.groups[g].bitmapDirty {
			if err := fs.writeBitmap(g); err != nil {
				return err
			}
		}
	}
	for _, inum := range fs.dirtyInums() {
		if err := fs.writeInodeSync(inum); err != nil {
			return err
		}
	}
	fs.dirtyInodes = make(map[uint32]bool)
	return nil
}

// dirtyInums lists the dirty inodes in ascending order, so write-back
// issues its requests, and pays its seeks, the same way on every run.
func (fs *FS) dirtyInums() []uint32 {
	inums := make([]uint32, 0, len(fs.dirtyInodes))
	for inum := range fs.dirtyInodes {
		inums = append(inums, inum)
	}
	slices.Sort(inums)
	return inums
}
