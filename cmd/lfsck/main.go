// Command lfsck checks the structural consistency of a log-structured
// file system image: it mounts the image (running roll-forward recovery
// unless -noroll is given) and then performs a full sweep comparing the
// segment usage table, inode map, directory tree and link counts against
// ground truth recomputed from every reachable block pointer.
//
//	lfsck disk.img
//	lfsck -noroll -v disk.img
//	lfsck -salvage broken.img
//
// Unlike Unix fsck — whose full-disk metadata scan the paper contrasts
// with LFS recovery — lfsck's mount phase reads only the checkpoint and
// the log tail; the exhaustive sweep afterwards is a verification tool,
// not part of recovery.
//
// -salvage is the last resort for images normal recovery cannot open
// (both checkpoint regions lost) or that mounted degraded: the whole log
// is scavenged, the newest verifiable version of every inode is kept,
// orphans are reconnected under lost+found/, and the repaired image —
// now carrying a fresh checkpoint — is written back in place.
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
	fl := flag.NewFlagSet("lfsck", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		noroll  = fl.Bool("noroll", false, "discard everything after the last checkpoint instead of rolling forward")
		verbose = fl.Bool("v", false, "print summary statistics")
		deep    = fl.Bool("deep", false, "also verify every partial write's data checksum (full-disk scan)")
		salvage = fl.Bool("salvage", false, "rebuild the image from its log when mount fails or the file system is degraded, writing the repaired image back")
	)
	if err := fl.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if fl.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: lfsck [-noroll] [-deep] [-salvage] [-v] <image>")
		return 2
	}
	img := fl.Arg(0)
	d, err := lfs.LoadDisk(img)
	if err != nil {
		fmt.Fprintln(stderr, "lfsck:", err)
		return 1
	}
	var srep *lfs.SalvageReport
	fs, err := lfs.Mount(d, lfs.Options{NoRollForward: *noroll})
	if err != nil {
		if !*salvage {
			fmt.Fprintf(stderr, "lfsck: mount: %v (rerun with -salvage to rebuild from the log)\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "lfsck: %s: mount: %v; salvaging from the log\n", img, err)
		fs, srep, err = lfs.SalvageImage(d, lfs.Options{})
		if err != nil {
			fmt.Fprintln(stderr, "lfsck: salvage:", err)
			return 1
		}
	} else if *salvage && fs.Degraded() {
		fmt.Fprintf(stdout, "lfsck: %s: degraded (%s); salvaging from the log\n", img, fs.DegradedReason())
		srep, err = fs.Salvage()
		if err != nil {
			fmt.Fprintln(stderr, "lfsck: salvage:", err)
			return 1
		}
	}
	var rep *lfs.CheckReport
	if *deep {
		rep, err = fs.CheckDeep()
	} else {
		rep, err = fs.Check()
	}
	if err != nil {
		fmt.Fprintln(stderr, "lfsck: check:", err)
		return 1
	}
	if *verbose {
		var live int64
		for _, b := range rep.LiveBytesBySegment {
			live += b
		}
		fmt.Fprintf(stdout, "lfsck: %d files, %d MB live data, %d segments, utilization %.1f%%\n",
			rep.Files, live>>20, fs.NumSegments(),
			float64(live)/float64(fs.NumSegments()*fs.SegmentBytes())*100)
	}
	if srep != nil {
		fmt.Fprintf(stdout, "lfsck: salvage: %d inodes recovered, %d lost, %d orphans reconnected, %d blocks dropped\n",
			srep.InodesRecovered, srep.InodesLost, srep.Orphans, srep.BlocksDropped)
		if err := fs.Unmount(); err != nil {
			fmt.Fprintln(stderr, "lfsck: unmount:", err)
			return 1
		}
		if err := d.Save(img); err != nil {
			fmt.Fprintln(stderr, "lfsck: writing repaired image:", err)
			return 1
		}
	}
	if len(rep.Problems) == 0 {
		fmt.Fprintf(stdout, "lfsck: %s: clean\n", img)
		return 0
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(stdout, "lfsck: %s\n", p)
	}
	return 1
}
