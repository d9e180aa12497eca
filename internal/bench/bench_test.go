package bench

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

func quickCfg() Config { return Config{Quick: true, Seed: 7} }

// TestAllExperimentsRun smoke-tests every experiment in quick mode: it
// must complete without error, produce a non-empty, renderable table, and
// leave no goroutine behind — a file system left mounted keeps its
// committer, which pins the FS and its disk for the life of the process.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			tbl, err := e.Run(quickCfg())
			// A worker whose WaitGroup was just released may still be on
			// its way out; one left by a mounted file system never goes.
			for wait := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(wait); {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%s: %d goroutines before the run, %d after", e.Name, before, n)
			}
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s: empty table", e.Name)
			}
			out := tbl.String()
			if !strings.Contains(out, tbl.ID) {
				t.Fatalf("%s: rendering lacks id", e.Name)
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("fig8"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("nonsense"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestElapsedModel(t *testing.T) {
	cpu, disk := 10*time.Millisecond, 4*time.Millisecond
	if got := Elapsed(cpu, disk, false); got != cpu {
		t.Fatalf("async elapsed = %v, want cpu %v", got, cpu)
	}
	if got := Elapsed(cpu, disk, true); got != cpu+disk {
		t.Fatalf("sync elapsed = %v, want %v", got, cpu+disk)
	}
	if got := Elapsed(disk, cpu, false); got != cpu {
		t.Fatalf("async elapsed = %v, want disk-bound %v", got, cpu)
	}
}

func TestCPUModel(t *testing.T) {
	c := Sun4CPU()
	base := c.Cost(100, 1<<20)
	if base <= 0 {
		t.Fatal("zero cpu cost")
	}
	fast := c.Faster(4).Cost(100, 1<<20)
	if fast*4 != base {
		t.Fatalf("4x faster CPU: cost %v, want %v", fast, base/4)
	}
}

// TestFig1Shape checks the headline Figure 1 claim: FFS needs ~10
// separate writes, LFS a single large one.
func TestFig1Shape(t *testing.T) {
	tbl, err := RunFig1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	lfsReqs := atoi(t, tbl.Rows[0][1])
	ffsReqs := atoi(t, tbl.Rows[1][1])
	if lfsReqs > 2 {
		t.Errorf("LFS used %d write requests, want 1-2", lfsReqs)
	}
	if ffsReqs < 9 || ffsReqs > 12 {
		t.Errorf("FFS used %d write requests, want ~10", ffsReqs)
	}
	lfsSeeks := atoi(t, tbl.Rows[0][3])
	ffsSeeks := atoi(t, tbl.Rows[1][3])
	if lfsSeeks >= ffsSeeks {
		t.Errorf("LFS seeks %d not below FFS seeks %d", lfsSeeks, ffsSeeks)
	}
}

// TestFig8Shape checks the headline Figure 8 claims: LFS is several times
// faster than FFS for create and delete, and at least as fast for read;
// the LFS create phase is CPU-bound while FFS's is disk-bound.
func TestFig8Shape(t *testing.T) {
	tbl, err := RunFig8(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	lfs, ffs := tbl.Rows[0], tbl.Rows[1]
	lc, fc := atof(t, lfs[1]), atof(t, ffs[1])
	if lc < 4*fc {
		t.Errorf("LFS create %.0f/s not >> FFS %.0f/s", lc, fc)
	}
	ld, fd := atof(t, lfs[3]), atof(t, ffs[3])
	if ld < 3*fd {
		t.Errorf("LFS delete %.0f/s not >> FFS %.0f/s", ld, fd)
	}
	lr, fr := atof(t, lfs[2]), atof(t, ffs[2])
	if lr < fr {
		t.Errorf("LFS read %.0f/s slower than FFS %.0f/s", lr, fr)
	}
	// Disk busy percentages: LFS low, FFS high.
	lb := atof(t, strings.TrimSuffix(lfs[4], "%"))
	fb := atof(t, strings.TrimSuffix(ffs[4], "%"))
	if lb >= 75 {
		t.Errorf("LFS create disk busy %.0f%%, want well under saturation", lb)
	}
	if fb < 75 {
		t.Errorf("FFS create disk busy %.0f%%, want near saturation", fb)
	}
}

// TestFig9Shape checks the Figure 9 claims: LFS wins sequential and
// random writes; FFS wins the sequential reread of a randomly written
// file; other reads are comparable.
func TestFig9Shape(t *testing.T) {
	tbl, err := RunFig9(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	get := func(row int) (float64, float64) {
		return atof(t, tbl.Rows[row][1]), atof(t, tbl.Rows[row][2])
	}
	wseqL, wseqF := get(0)
	if wseqL <= wseqF {
		t.Errorf("sequential write: LFS %.0f <= FFS %.0f", wseqL, wseqF)
	}
	wrndL, wrndF := get(2)
	if wrndL <= 1.5*wrndF {
		t.Errorf("random write: LFS %.0f not >> FFS %.0f", wrndL, wrndF)
	}
	rrL, rrF := get(4)
	if rrL >= rrF {
		t.Errorf("seq reread after random write: LFS %.0f >= FFS %.0f (FFS should win)", rrL, rrF)
	}
	rseqL, rseqF := get(1)
	if rseqL < rseqF/2 || rseqL > rseqF*4 {
		t.Errorf("sequential read: LFS %.0f vs FFS %.0f not comparable", rseqL, rseqF)
	}
}

// TestTable3Shape: recovery time grows with file count, not data volume:
// for a fixed recovered volume, smaller files take longer; and more data
// of the same size takes longer.
func TestTable3Shape(t *testing.T) {
	tbl, err := RunTable3(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Rows: 1 KB, 10 KB, 100 KB. Columns 1..: increasing volumes.
	last := len(tbl.Rows[0]) - 1
	small := atof(t, tbl.Rows[0][last])
	large := atof(t, tbl.Rows[2][last])
	if small <= large {
		t.Errorf("recovering 1 KB files (%.2fs) not slower than 100 KB files (%.2fs)", small, large)
	}
	first := atof(t, tbl.Rows[0][1])
	if first >= small {
		t.Errorf("recovering less data (%.2fs) not faster than more (%.2fs)", first, small)
	}
}

// TestTable4Shape: nearly all live data is file data; metadata takes a
// much larger share of log bandwidth than of live data.
func TestTable4Shape(t *testing.T) {
	tbl, err := RunTable4(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	dataLive := atof(t, strings.TrimSuffix(tbl.Rows[0][1], "%"))
	if dataLive < 90 {
		t.Errorf("file data is %.1f%% of live data, want >90%%", dataLive)
	}
	var metaLog float64
	for _, row := range tbl.Rows[2:6] { // inode, imap, segusage, dirlog
		metaLog += atof(t, strings.TrimSuffix(row[2], "%"))
	}
	if metaLog < 3 {
		t.Errorf("metadata log share %.1f%%, expected noticeable overhead with short checkpoints", metaLog)
	}
}

// TestAblationWriteBufferShape: tiny write buffers must cost more disk
// time than big ones.
func TestAblationWriteBufferShape(t *testing.T) {
	tbl, err := RunAblationWriteBuffer(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	first := atof(t, tbl.Rows[0][2])
	last := atof(t, tbl.Rows[len(tbl.Rows)-1][2])
	if first <= last {
		t.Errorf("1-block buffer disk time %.2fs not worse than large buffer %.2fs", first, last)
	}
}

// TestCleanerGapShape is the differential harness's tier-1 case (quick
// scale: 64-block segments, 45 000 overwrites of one trace per side). The
// real cleaner behaves like the simulated one once cleansim is given the
// disk the cleaner actually works on; the default cleaner sizing beats the
// marks it replaced; and a round keeps fewer cleaning operations than the
// benchmark's per-round p99.9 has room for.
func TestCleanerGapShape(t *testing.T) {
	tbl, err := RunCleanerGap(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows[0][0] != "16/32/8" || tbl.Rows[1][0] != "10/24/24" {
		t.Fatalf("rows are %s and %s, want the old marks then the defaults", tbl.Rows[0][0], tbl.Rows[1][0])
	}
	var cost [2]float64
	for i, row := range tbl.Rows[:2] {
		fsCost, sim := atof(t, row[4]), atof(t, row[5])
		cost[i] = fsCost
		if fsCost > 1.2*sim || fsCost < 0.8*sim {
			t.Errorf("%s: core.FS write cost %.2f is not within 20%% of cleansim's %.2f at effective utilisation %s",
				row[0], fsCost, sim, row[3])
		}
		if n := atoi(t, row[11]); n >= 15 {
			t.Errorf("%s: %d cleaning operations in one round, want fewer than 15", row[0], n)
		}
	}
	if cost[1] > 0.85*cost[0] {
		t.Errorf("default sizing write cost %.2f, want at least 15%% under %.2f at 16/32/8", cost[1], cost[0])
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("atoi(%q): %v", s, err)
	}
	return v
}

func atof(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("atof(%q): %v", s, err)
	}
	return v
}

// TestRegistryCoversDesignIndex verifies the experiment registry contains
// every table and figure DESIGN.md promises, under the exact ids.
func TestRegistryCoversDesignIndex(t *testing.T) {
	want := []string{
		"fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"table2", "table3", "table4",
		"ablation-policy", "ablation-agesort", "ablation-segsize",
		"ablation-checkpoint", "ablation-writebuffer", "ablation-thresholds",
		"ablation-cleanread", "cleaner-gap", "bgclean", "groupcommit", "nvsync",
		"readpath",
	}
	have := map[string]bool{}
	for _, e := range Experiments() {
		have[e.Name] = true
		if e.Description == "" {
			t.Errorf("experiment %s lacks a description", e.Name)
		}
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("experiment %s missing from the registry", w)
		}
	}
	if len(have) != len(want) {
		t.Errorf("registry has %d experiments, design index has %d", len(have), len(want))
	}
}
