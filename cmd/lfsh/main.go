// Command lfsh is an interactive shell over a log-structured file system
// image: create and inspect files, trigger cleaning and checkpoints, cut
// the power, and watch the log react.
//
//	lfsh disk.img
//	lfsh -new -size 64 disk.img
//	lfsh fsck [-deep] [-repair] disk.img
//	lfsh scrub disk.img
//
// Commands: ls [path], cat <path>, put <path> <text>, gen <path> <KB>,
// rm <path>, mkdir <path>, mv <old> <new>, ln <old> <new>, stat <path>,
// df, segs, sync, checkpoint, clean, idle <n>, crash, recovery, fsck, scrub,
// stats, trace <file>|off, save, help, quit.
//
// The fsck subcommand mounts the image via checkpoint + roll-forward,
// runs the structural consistency sweep non-interactively, and exits 0
// when the image is clean, 1 when it has problems or cannot be mounted.
// It never writes the image back — unless -repair is given, in which
// case an unmountable or degraded image is rebuilt from its log (the
// last-resort salvage; orphans are reconnected under lost+found/) and
// the repaired image replaces the original.
//
// The scrub subcommand mounts the image the same way and reads back
// every live block — map blocks, inodes, indirect blocks and file data —
// verifying each against the checksum recorded in its segment summary,
// so latent media corruption is found before a read path trips over it.
// Exit status: 0 clean, 1 corruption found or unmountable.
//
// Media-fault health is visible interactively: under its histogram `segs`
// prints the segment life cycle (head, next, free, pending release, dirty)
// and how many segments corrupt reads or refused writes have quarantined
// (fsck and scrub list them), then why the cleaner works as hard as it does
// (how full the disk is against how full the segments holding data are, the
// clean pool against the cleaner's two marks, live MB by block kind; this
// flushes what is buffered), and `stats` includes
// the write-fault ladder counters (fs.media.write.retries/errors/
// relocations and fs.seg.retired) alongside the read-side media
// counters. It also says why every summary-chain walk so far stopped
// (log.walk.end.<reason>): after `crash`, what ended roll-forward — and
// what each phase of that recovery asked of the disk
// (fs.recovery.<phase>.{reads,blocks,sim_us}; fs.salvage.<phase>.* after a
// salvage). `recovery` prints the last of those as a table: per phase the
// requests, blocks and simulated time with its share, and under it why the
// log walks of that recovery stopped.
package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"flag"

	"repro/internal/layout"
	"repro/internal/obs"
	"repro/lfs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "fsck" {
		os.Exit(runFsck(os.Args[2:], os.Stdout))
	}
	if len(os.Args) > 1 && os.Args[1] == "scrub" {
		os.Exit(runScrub(os.Args[2:], os.Stdout))
	}
	var (
		newFS  = flag.Bool("new", false, "format a fresh file system instead of mounting")
		sizeMB = flag.Int("size", 64, "disk size in MB when formatting")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lfsh [-new [-size MB]] <image>")
		os.Exit(2)
	}
	img := flag.Arg(0)

	// Metrics are always on; `trace <file>` attaches a JSONL sink live.
	opts := lfs.Options{Tracer: lfs.NewTracer(nil)}
	var d *lfs.Disk
	var fs *lfs.FS
	var err error
	if *newFS {
		d = lfs.NewDisk(int64(*sizeMB) << 20 / 4096)
		fs, err = lfs.Format(d, opts)
	} else {
		d, err = lfs.LoadDisk(img)
		if err == nil {
			fs, err = lfs.Mount(d, opts)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfsh:", err)
		os.Exit(1)
	}
	fmt.Printf("lfsh: %s mounted (%d segments x %d KB). Type help.\n",
		img, fs.NumSegments(), fs.SegmentBytes()>>10)

	sc := bufio.NewScanner(os.Stdin)
	rng := rand.New(rand.NewSource(1))
	for {
		fmt.Print("lfs> ")
		if !sc.Scan() {
			break
		}
		args := strings.Fields(sc.Text())
		if len(args) == 0 {
			continue
		}
		if quit := runCmd(img, d, &fs, rng, args); quit {
			break
		}
	}
}

// runFsck implements `lfsh fsck [-deep] [-repair] <image>`. The image
// is loaded into memory and mounted with normal recovery; without
// -repair nothing is written back, so checking a crashed image leaves it
// untouched for later inspection. With -repair a mount failure or a
// degraded mount triggers last-resort salvage — the image is rebuilt
// from its log, orphans land under lost+found/, and the repaired image
// is written back in place.
func runFsck(args []string, out io.Writer) int {
	fl := flag.NewFlagSet("fsck", flag.ContinueOnError)
	fl.SetOutput(out)
	deep := fl.Bool("deep", false, "also verify the checksum of every live log block")
	repair := fl.Bool("repair", false, "salvage the image from its log when mount fails or the file system is degraded, writing the repaired image back")
	if err := fl.Parse(args); err != nil || fl.NArg() != 1 {
		fmt.Fprintln(out, "usage: lfsh fsck [-deep] [-repair] <image>")
		return 2
	}
	img := fl.Arg(0)
	d, err := lfs.LoadDisk(img)
	if err != nil {
		fmt.Fprintf(out, "fsck: %s: %v\n", img, err)
		return 1
	}
	var srep *lfs.SalvageReport
	fs, err := lfs.Mount(d, lfs.Options{})
	if err != nil {
		if !*repair {
			fmt.Fprintf(out, "fsck: %s: mount: %v (rerun with -repair to rebuild from the log)\n", img, err)
			return 1
		}
		fmt.Fprintf(out, "%s: mount: %v; salvaging from the log\n", img, err)
		fs, srep, err = lfs.SalvageImage(d, lfs.Options{})
		if err != nil {
			fmt.Fprintf(out, "fsck: %s: salvage: %v\n", img, err)
			return 1
		}
	} else if *repair && fs.Degraded() {
		fmt.Fprintf(out, "%s: degraded (%s); salvaging from the log\n", img, fs.DegradedReason())
		srep, err = fs.Salvage()
		if err != nil {
			fmt.Fprintf(out, "fsck: %s: salvage: %v\n", img, err)
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
		fmt.Fprintf(out, "fsck: %s: %v\n", img, err)
		return 1
	}
	if srep != nil {
		fmt.Fprintf(out, "%s: salvaged: %d inodes recovered, %d lost, %d orphans reconnected, %d blocks dropped\n",
			img, srep.InodesRecovered, srep.InodesLost, srep.Orphans, srep.BlocksDropped)
		if err := fs.Unmount(); err != nil {
			fmt.Fprintf(out, "fsck: %s: unmount: %v\n", img, err)
			return 1
		}
		if err := d.Save(img); err != nil {
			fmt.Fprintf(out, "fsck: %s: writing repaired image: %v\n", img, err)
			return 1
		}
	}
	if len(rep.Problems) == 0 {
		fmt.Fprintf(out, "%s: clean: %d files\n", img, rep.Files)
		return 0
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(out, "%s: problem: %s\n", img, p)
	}
	return 1
}

// runScrub implements `lfsh scrub <image>`: mount, walk every live
// block verifying checksums, report each corruption, never write back.
func runScrub(args []string, out io.Writer) int {
	fl := flag.NewFlagSet("scrub", flag.ContinueOnError)
	fl.SetOutput(out)
	if err := fl.Parse(args); err != nil || fl.NArg() != 1 {
		fmt.Fprintln(out, "usage: lfsh scrub <image>")
		return 2
	}
	img := fl.Arg(0)
	d, err := lfs.LoadDisk(img)
	if err != nil {
		fmt.Fprintf(out, "scrub: %s: %v\n", img, err)
		return 1
	}
	fs, err := lfs.Mount(d, lfs.Options{})
	if err != nil {
		fmt.Fprintf(out, "scrub: %s: mount: %v\n", img, err)
		return 1
	}
	rep, err := fs.Scrub()
	if err != nil {
		fmt.Fprintf(out, "scrub: %s: %v\n", img, err)
		return 1
	}
	if fs.Degraded() {
		fmt.Fprintf(out, "%s: DEGRADED (read-only): %s\n", img, fs.DegradedReason())
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(out, "%s: corrupt: %s\n", img, e)
	}
	for _, s := range rep.Quarantined {
		fmt.Fprintf(out, "%s: quarantined segment %d\n", img, s)
	}
	if len(rep.Errors) == 0 && !rep.Degraded {
		fmt.Fprintf(out, "%s: clean: %d live blocks verified\n", img, rep.Blocks)
		return 0
	}
	fmt.Fprintf(out, "%s: %d live blocks scanned, %d bad\n", img, rep.Blocks, len(rep.Errors))
	return 1
}

// traceOut is the JSONL trace file the `trace` command writes to, if any.
var traceOut struct {
	f   *os.File
	buf *bufio.Writer
}

// closeTrace flushes and closes the current trace file, if one is open.
func closeTrace(fs *lfs.FS) error {
	if traceOut.f == nil {
		return nil
	}
	if tr := fs.Tracer(); tr != nil {
		tr.SetSink(nil)
	}
	err := traceOut.buf.Flush()
	if cerr := traceOut.f.Close(); err == nil {
		err = cerr
	}
	traceOut.f, traceOut.buf = nil, nil
	return err
}

func runCmd(img string, d *lfs.Disk, fsp **lfs.FS, rng *rand.Rand, args []string) (quit bool) {
	fs := *fsp
	fail := func(err error) {
		if err != nil {
			fmt.Println("error:", err)
		}
	}
	need := func(n int) bool {
		if len(args) < n+1 {
			fmt.Printf("%s: missing argument(s)\n", args[0])
			return false
		}
		return true
	}
	switch args[0] {
	case "help":
		fmt.Println("ls [path] | cat <p> | put <p> <text...> | gen <p> <KB> | rm <p> | mkdir <p>")
		fmt.Println("mv <a> <b> | ln <a> <b> | stat <p> | df | segs | sync | checkpoint | clean")
		fmt.Println("idle <n> | crash | recovery | fsck | scrub | stats | trace <file>|off | save | quit")
	case "quit", "exit":
		fail(closeTrace(fs))
		fail(fs.Unmount())
		fail(d.Save(img))
		fmt.Println("saved", img)
		return true
	case "ls":
		p := "/"
		if len(args) > 1 {
			p = args[1]
		}
		entries, err := fs.ReadDir(p)
		if err != nil {
			fail(err)
			return
		}
		for _, e := range entries {
			full := strings.TrimSuffix(p, "/") + "/" + e.Name
			info, err := fs.Stat(full)
			if err != nil {
				fmt.Printf("?         %s\n", e.Name)
				continue
			}
			kind := "-"
			if info.IsDir {
				kind = "d"
			}
			fmt.Printf("%s %8d  inum=%-5d nlink=%d  %s\n", kind, info.Size, info.Inum, info.Nlink, e.Name)
		}
	case "cat":
		if !need(1) {
			return
		}
		data, err := fs.ReadFile(args[1])
		if err != nil {
			fail(err)
			return
		}
		if len(data) > 512 {
			fmt.Printf("%s... (%d bytes)\n", data[:512], len(data))
		} else {
			fmt.Printf("%s\n", data)
		}
	case "put":
		if !need(2) {
			return
		}
		fail(fs.WriteFile(args[1], []byte(strings.Join(args[2:], " "))))
	case "gen":
		if !need(2) {
			return
		}
		kb, err := strconv.Atoi(args[2])
		if err != nil || kb < 0 {
			fmt.Println("gen: bad size")
			return
		}
		buf := make([]byte, kb<<10)
		rng.Read(buf)
		fail(fs.WriteFile(args[1], buf))
	case "rm":
		if !need(1) {
			return
		}
		fail(fs.Remove(args[1]))
	case "mkdir":
		if !need(1) {
			return
		}
		fail(fs.Mkdir(args[1]))
	case "mv":
		if !need(2) {
			return
		}
		fail(fs.Rename(args[1], args[2]))
	case "ln":
		if !need(2) {
			return
		}
		fail(fs.Link(args[1], args[2]))
	case "stat":
		if !need(1) {
			return
		}
		info, err := fs.Stat(args[1])
		if err != nil {
			fail(err)
			return
		}
		fmt.Printf("%+v\n", info)
	case "df":
		st := fs.Stats()
		fmt.Printf("utilization %.1f%%, %d clean segments, write cost %.2f\n",
			fs.DiskCapacityUtilization()*100, fs.CleanSegments(), st.WriteCost())
		fmt.Printf("cleaner: %d segments cleaned (%.0f%% empty, avg u %.3f), %d checkpoints\n",
			st.SegmentsCleaned, st.EmptyCleanedFraction()*100, st.AvgCleanedUtil(), st.Checkpoints)
		ds := d.Stats()
		fmt.Printf("disk: %d reads, %d writes, %d seeks, %.2fs busy\n",
			ds.ReadOps, ds.WriteOps, ds.Seeks, ds.BusyTime.Seconds())
	case "segs":
		utils := fs.SegmentUtilizations()
		hist := make([]int, 10)
		for _, u := range utils {
			b := int(u * 10)
			if b > 9 {
				b = 9
			}
			hist[b]++
		}
		for b, n := range hist {
			bar := strings.Repeat("#", n*50/len(utils))
			fmt.Printf("%.1f-%.1f %5d %s\n", float64(b)/10, float64(b+1)/10, n, bar)
		}
		// Live bytes first: counting them flushes what is buffered, and
		// the other readings should describe the same log.
		live, err := fs.LiveBytesByKind()
		if err != nil {
			fail(err)
			return
		}
		counts := fs.SegmentCounts()
		fmt.Println(segsLine(counts))
		fmt.Println(slackLine(fs.DiskCapacityUtilization(), fs.NumSegments(), counts, fs.Options(), live))
	case "sync":
		fail(fs.Sync())
	case "checkpoint":
		fail(fs.Checkpoint())
	case "clean":
		fail(fs.Clean())
	case "idle":
		if !need(1) {
			return
		}
		n, err := strconv.Atoi(args[1])
		if err != nil {
			fmt.Println("idle: bad count")
			return
		}
		fail(fs.CleanIdle(n))
	case "crash":
		d.Crash()
		d.Reopen()
		beforeRecovery = fs.Metrics()
		fs2, err := lfs.Mount(d, lfs.Options{Tracer: fs.Tracer()})
		if err != nil {
			fail(err)
			return
		}
		*fsp = fs2
		fmt.Println("power cut; recovered via checkpoint + roll-forward")
	case "recovery":
		fmt.Print(recoveryTable(fs.Metrics(), beforeRecovery))
	case "fsck":
		rep, err := fs.Check()
		if err != nil {
			fail(err)
			return
		}
		if len(rep.Problems) == 0 {
			fmt.Printf("clean: %d files\n", rep.Files)
		}
		for _, p := range rep.Problems {
			fmt.Println("problem:", p)
		}
	case "scrub":
		rep, err := fs.Scrub()
		if err != nil {
			fail(err)
			return
		}
		if fs.Degraded() {
			fmt.Println("DEGRADED (read-only):", fs.DegradedReason())
		}
		for _, e := range rep.Errors {
			fmt.Println("corrupt:", e)
		}
		for _, s := range rep.Quarantined {
			fmt.Println("quarantined segment", s)
		}
		if len(rep.Errors) == 0 {
			fmt.Printf("clean: %d live blocks verified\n", rep.Blocks)
		} else {
			fmt.Printf("%d live blocks scanned, %d bad\n", rep.Blocks, len(rep.Errors))
		}
	case "stats":
		if fs.Tracer() == nil {
			fmt.Println("no tracer attached")
			return
		}
		out := fs.Metrics().String()
		if out == "" {
			fmt.Println("(no metrics recorded yet)")
			return
		}
		fmt.Print(out)
	case "trace":
		if !need(1) {
			return
		}
		tr := fs.Tracer()
		if tr == nil {
			fmt.Println("no tracer attached")
			return
		}
		if args[1] == "off" {
			fail(closeTrace(fs))
			fmt.Println("tracing off")
			return
		}
		fail(closeTrace(fs))
		f, err := os.Create(args[1])
		if err != nil {
			fail(err)
			return
		}
		traceOut.f = f
		traceOut.buf = bufio.NewWriter(f)
		tr.SetSink(lfs.NewJSONLSink(traceOut.buf))
		fmt.Println("tracing to", args[1])
	case "save":
		fail(fs.Sync())
		fail(d.Save(img))
		fmt.Println("saved", img)
	default:
		fmt.Printf("unknown command %q (try help)\n", args[0])
	}
	return false
}

// beforeRecovery is the metrics snapshot taken just before the last `crash`
// remounted: the tracer outlives the mount, so the last recovery's counters
// are the difference to it.
var beforeRecovery lfs.MetricsSnapshot

// recoveryTable renders what each phase of the last recovery — every
// fs.recovery.* or fs.salvage.* phase that moved since before — asked of the
// disk, and why the log walks since then stopped.
func recoveryTable(now, before lfs.MetricsSnapshot) string {
	delta := func(name string) int64 { return now.Counter(name) - before.Counter(name) }
	var b strings.Builder
	for _, run := range []struct {
		prefix string
		phases []string
	}{
		{obs.CtrRecoveryPhasePrefix, []string{"cpload", "rollforward", "dirops", "usage", "commit", "nvreplay"}},
		{obs.CtrSalvagePhasePrefix, []string{"scan", "accept", "rebuild", "commit"}},
	} {
		var reads, blocks, us int64
		for _, ph := range run.phases {
			reads += delta(run.prefix + ph + ".reads")
			blocks += delta(run.prefix + ph + ".blocks")
			us += delta(run.prefix + ph + ".sim_us")
		}
		if reads == 0 && us == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-22s %8s %8s %10s %7s\n", strings.TrimSuffix(run.prefix, "."), "requests", "blocks", "sim ms", "share")
		row := func(name string, r, bl, u int64) {
			fmt.Fprintf(&b, "%-22s %8d %8d %10.1f %6.1f%%\n", name, r, bl, float64(u)/1e3, 100*float64(u)/float64(max(us, 1)))
		}
		for _, ph := range run.phases {
			if _, ran := now.Counters[run.prefix+ph+".reads"]; ran {
				row(ph, delta(run.prefix+ph+".reads"), delta(run.prefix+ph+".blocks"), delta(run.prefix+ph+".sim_us"))
			}
		}
		row("total", reads, blocks, us)
	}
	if b.Len() == 0 {
		return "no recovery has run under this tracer (mount an image, or crash)\n"
	}
	var ends []string
	for e := layout.WalkEnd(0); e < layout.NumWalkEnds; e++ {
		if n := delta(obs.CtrLogWalkEndPrefix + e.String()); n > 0 {
			ends = append(ends, fmt.Sprintf("%s %d", e, n))
		}
	}
	fmt.Fprintf(&b, "log walks ended: %s\n", strings.Join(ends, ", "))
	return b.String()
}

// segsLine is the life-cycle line under the `segs` histogram: where the log
// head is, which segment it moves to next ("-" when none is pre-selected),
// and how many segments stand in each state. Quarantined segments — corrupt
// reads or refused writes withdrew them (see fs.seg.retired and
// fs.media.write.* in stats) — are also counted under their state.
func segsLine(c lfs.SegCounts) string {
	next := "-"
	if c.Next >= 0 {
		next = strconv.FormatInt(c.Next, 10)
	}
	return fmt.Sprintf("head %d · next %s · %d free · %d pending · %d dirty · %d quarantined",
		c.Head, next, c.Free, c.Pending, c.Dirty, c.Quarantined)
}

// slackLine is the line under it, the answer to "why is the cleaner working
// this hard": how full the disk is nominally (live bytes over the whole
// segment area) against how full the segments that hold data are — the
// dirty ones and the head, which is where the cleaner's victims come from —
// then the clean and pending-release segments against the two marks, and
// the live bytes by kind that make up the difference between file data and
// what the segments carry.
func slackLine(nominal float64, nsegs int64, c lfs.SegCounts, o lfs.Options, live map[layout.BlockKind]int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "utilisation %.1f%% of the disk, %.1f%% of the %d segments holding data · %d clean + %d pending (cleaning starts below %d, stops at %d) · live MB:",
		nominal*100, nominal*100*float64(nsegs)/float64(c.Dirty+1), c.Dirty+1, c.Free, c.Pending, o.CleanLowWater, o.CleanHighWater)
	for k := layout.KindData; k <= layout.KindDirLog; k++ {
		fmt.Fprintf(&b, " %s %.1f", k, float64(live[k])/(1<<20))
	}
	return b.String()
}
