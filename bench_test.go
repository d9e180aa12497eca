// Package repro's top-level benchmarks regenerate every table and figure
// of the LFS paper (one benchmark per table/figure, plus the ablations),
// reporting the headline simulated metrics via testing.B custom metrics.
// Host ns/op is not meaningful here — all results are in simulated disk
// time — so look at the custom metrics instead.
//
// Run them all:
//
//	go test -bench=. -benchmem
//
// The benchmarks run the quick (scaled-down) configurations so the whole
// suite finishes in seconds; use cmd/lfsbench for the full-scale runs.
package repro

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
)

func benchCfg() bench.Config { return bench.Config{Quick: true, Seed: 42} }

// cell parses a numeric table cell, tolerating % and x suffixes.
func cell(b *testing.B, t *bench.Table, row, col int) float64 {
	b.Helper()
	s := t.Rows[row][col]
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x")
	if i := strings.IndexByte(s, ' '); i >= 0 {
		s = s[:i]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) %q: %v", row, col, t.Rows[row][col], err)
	}
	return v
}

func runExp(b *testing.B, name string) *bench.Table {
	b.Helper()
	e, err := bench.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	var tbl *bench.Table
	for i := 0; i < b.N; i++ {
		tbl, err = e.Run(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

// BenchmarkFig1CreateTwoFiles measures the disk I/O to create two small
// files (Figure 1): LFS in one sequential write, FFS in ~10 seeks.
func BenchmarkFig1CreateTwoFiles(b *testing.B) {
	t := runExp(b, "fig1")
	b.ReportMetric(cell(b, t, 0, 1), "lfs-write-reqs")
	b.ReportMetric(cell(b, t, 1, 1), "ffs-write-reqs")
}

// BenchmarkFig3WriteCostFormula evaluates formula (1).
func BenchmarkFig3WriteCostFormula(b *testing.B) {
	t := runExp(b, "fig3")
	b.ReportMetric(cell(b, t, 8, 1), "cost-at-u0.8")
}

// BenchmarkFig4InitialSimulations runs the Section 3.5 simulator sweep.
func BenchmarkFig4InitialSimulations(b *testing.B) {
	t := runExp(b, "fig4")
	last := len(t.Rows) - 1
	b.ReportMetric(cell(b, t, last, 2), "uniform-cost")
	b.ReportMetric(cell(b, t, last, 3), "hotcold-cost")
}

// BenchmarkFig5GreedyDistributions collects the greedy-cleaner segment
// utilization distributions.
func BenchmarkFig5GreedyDistributions(b *testing.B) {
	t := runExp(b, "fig5")
	b.ReportMetric(float64(len(t.Rows)), "histogram-rows")
}

// BenchmarkFig6CostBenefitBimodal collects the cost-benefit distribution.
func BenchmarkFig6CostBenefitBimodal(b *testing.B) {
	t := runExp(b, "fig6")
	b.ReportMetric(float64(len(t.Rows)), "histogram-rows")
}

// BenchmarkFig7PolicyComparison compares greedy and cost-benefit write
// costs on the hot-and-cold pattern.
func BenchmarkFig7PolicyComparison(b *testing.B) {
	t := runExp(b, "fig7")
	mid := len(t.Rows) - 2
	b.ReportMetric(cell(b, t, mid, 2), "greedy-cost")
	b.ReportMetric(cell(b, t, mid, 3), "costbenefit-cost")
}

// BenchmarkFig8SmallFiles runs the small-file create/read/delete
// benchmark on both file systems.
func BenchmarkFig8SmallFiles(b *testing.B) {
	t := runExp(b, "fig8")
	b.ReportMetric(cell(b, t, 0, 1), "lfs-creates/sec")
	b.ReportMetric(cell(b, t, 1, 1), "ffs-creates/sec")
	b.ReportMetric(cell(b, t, 0, 2), "lfs-reads/sec")
	b.ReportMetric(cell(b, t, 0, 3), "lfs-deletes/sec")
}

// BenchmarkFig9LargeFile runs the five-phase large-file benchmark.
func BenchmarkFig9LargeFile(b *testing.B) {
	t := runExp(b, "fig9")
	b.ReportMetric(cell(b, t, 0, 1), "lfs-seqwrite-KB/s")
	b.ReportMetric(cell(b, t, 2, 1), "lfs-randwrite-KB/s")
	b.ReportMetric(cell(b, t, 4, 1), "lfs-reread-KB/s")
	b.ReportMetric(cell(b, t, 4, 2), "ffs-reread-KB/s")
}

// BenchmarkFig10SegmentDistribution snapshots the production-like
// segment utilization distribution.
func BenchmarkFig10SegmentDistribution(b *testing.B) {
	t := runExp(b, "fig10")
	b.ReportMetric(cell(b, t, 0, 1), "empty-fraction")
	b.ReportMetric(cell(b, t, len(t.Rows)-1, 1), "full-fraction")
}

// BenchmarkTable2ProductionCleaning runs the five production-like
// workloads and reports /user6's write cost.
func BenchmarkTable2ProductionCleaning(b *testing.B) {
	t := runExp(b, "table2")
	b.ReportMetric(cell(b, t, 0, 7), "user6-write-cost")
	b.ReportMetric(cell(b, t, 0, 5), "user6-empty-pct")
}

// BenchmarkTable3RecoveryTime runs the crash-recovery matrix and reports
// the largest configuration's recovery time in simulated seconds.
func BenchmarkTable3RecoveryTime(b *testing.B) {
	t := runExp(b, "table3")
	last := len(t.Rows[0]) - 1
	b.ReportMetric(cell(b, t, 0, last), "recover-1KB-files-sec")
	b.ReportMetric(cell(b, t, 2, last), "recover-100KB-files-sec")
}

// BenchmarkTable4LogBandwidth measures the live-data and log-bandwidth
// breakdown by block type.
func BenchmarkTable4LogBandwidth(b *testing.B) {
	t := runExp(b, "table4")
	b.ReportMetric(cell(b, t, 0, 1), "data-live-pct")
	b.ReportMetric(cell(b, t, 3, 2), "imap-log-pct")
}

// BenchmarkAblationPolicy compares cleaning policies on the real FS.
func BenchmarkAblationPolicy(b *testing.B) {
	t := runExp(b, "ablation-policy")
	b.ReportMetric(cell(b, t, 0, 1), "costbenefit-write-cost")
	b.ReportMetric(cell(b, t, 1, 1), "greedy-write-cost")
}

// BenchmarkAblationAgeSort measures age sorting on/off.
func BenchmarkAblationAgeSort(b *testing.B) {
	t := runExp(b, "ablation-agesort")
	b.ReportMetric(cell(b, t, 0, 1), "agesort-on-cost")
	b.ReportMetric(cell(b, t, 1, 1), "agesort-off-cost")
}

// BenchmarkAblationSegmentSize sweeps segment sizes.
func BenchmarkAblationSegmentSize(b *testing.B) {
	t := runExp(b, "ablation-segsize")
	b.ReportMetric(cell(b, t, 0, 2), "smallest-seg-ms/MB")
	b.ReportMetric(cell(b, t, len(t.Rows)-1, 2), "largest-seg-ms/MB")
}

// BenchmarkAblationCheckpointInterval sweeps checkpoint intervals.
func BenchmarkAblationCheckpointInterval(b *testing.B) {
	t := runExp(b, "ablation-checkpoint")
	b.ReportMetric(cell(b, t, 0, 2), "shortest-interval-meta-pct")
}

// BenchmarkAblationWriteBuffer sweeps the write buffer size.
func BenchmarkAblationWriteBuffer(b *testing.B) {
	t := runExp(b, "ablation-writebuffer")
	b.ReportMetric(cell(b, t, 0, 3), "1-block-buffer-files/sec")
	b.ReportMetric(cell(b, t, len(t.Rows)-1, 3), "large-buffer-files/sec")
}

// BenchmarkAblationCleanRead compares cleaner read strategies.
func BenchmarkAblationCleanRead(b *testing.B) {
	t := runExp(b, "ablation-cleanread")
	b.ReportMetric(cell(b, t, 0, 1), "fullread-MB")
	b.ReportMetric(cell(b, t, 1, 1), "liveonly-MB")
	b.ReportMetric(cell(b, t, 2, 1), "planned-MB")
}

// BenchmarkAblationThresholds sweeps the cleaner water marks.
func BenchmarkAblationThresholds(b *testing.B) {
	t := runExp(b, "ablation-thresholds")
	b.ReportMetric(cell(b, t, 0, 1), "tight-marks-cost")
	b.ReportMetric(cell(b, t, len(t.Rows)-1, 1), "loose-marks-cost")
}

// BenchmarkReadPath runs the read-path allocation grid: single-block
// reads from a warm cache (must stay ~0 allocs/op) and through the
// pooled uncached path. Rows 0-3 are cached, 4-7 uncached, readers
// 1/2/4/8 within each mode.
func BenchmarkReadPath(b *testing.B) {
	t := runExp(b, "readpath")
	b.ReportMetric(cell(b, t, 0, 5), "cached-allocs/op")
	b.ReportMetric(cell(b, t, 4, 5), "uncached-allocs/op")
	b.ReportMetric(cell(b, t, 4, 6), "uncached-blocks-read")
}
