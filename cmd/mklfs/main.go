// Command mklfs creates a log-structured file system inside a disk image
// file, the way mkfs creates one on a device.
//
//	mklfs -size 300 -segment 512 -o disk.img
//
// The image can then be inspected with lfsck or used programmatically via
// lfs.LoadDisk.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/lfs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind main: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("mklfs", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		sizeMB  = fl.Int("size", 300, "disk size in MB")
		segKB   = fl.Int("segment", 512, "segment size in KB (multiple of 4)")
		inodes  = fl.Int("inodes", 65536, "maximum number of inodes")
		out     = fl.String("o", "disk.img", "output image path")
		verbose = fl.Bool("v", false, "print layout details")
	)
	if err := fl.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if *segKB%4 != 0 || *segKB < 16 {
		fmt.Fprintln(stderr, "mklfs: segment size must be a multiple of 4 KB and at least 16 KB")
		return 1
	}
	d := lfs.NewDisk(int64(*sizeMB) << 20 / 4096)
	fs, err := lfs.Format(d, lfs.Options{
		SegmentBlocks: *segKB / 4,
		MaxInodes:     *inodes,
	})
	if err != nil {
		fmt.Fprintln(stderr, "mklfs:", err)
		return 1
	}
	if err := fs.Unmount(); err != nil {
		fmt.Fprintln(stderr, "mklfs:", err)
		return 1
	}
	if err := d.Save(*out); err != nil {
		fmt.Fprintln(stderr, "mklfs:", err)
		return 1
	}
	sb := fs.Superblock()
	fmt.Fprintf(stdout, "mklfs: wrote %s: %d MB, %d segments of %d KB, %d inodes max\n",
		*out, *sizeMB, sb.NumSegments, sb.SegmentBlocks*4, sb.MaxInodes)
	if *verbose {
		fmt.Fprintf(stdout, "  superblock at block 0\n")
		fmt.Fprintf(stdout, "  checkpoint regions at blocks %d and %d (%d blocks each)\n",
			sb.CheckpointAddr[0], sb.CheckpointAddr[1], sb.CheckpointBlocks)
		fmt.Fprintf(stdout, "  segment area starts at block %d\n", sb.SegmentBase)
	}
	return 0
}
