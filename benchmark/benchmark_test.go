package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000000, 99.9}, {10000, 99.9}, {9999, 90}, {250, 90}, {100, 90}, {99, 50}, {5, 50}, {0, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	for n := 1; n < 30000; n += 37 {
		p := tailPercentile(n)
		if p == 99 {
			t.Fatalf("n=%d: p99 must never be chosen", n)
		}
		if beyond := float64(n) * (100 - p) / 100; p > 50 && beyond < minBeyond {
			t.Fatalf("n=%d: p%g leaves only %.1f samples beyond", n, p, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {99.9, 100}, {0, 10}, {100, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

// TestTailPerRound: a round with ten samples beyond p99.9 has a tail of
// its own and the best decile of rounds is reported, whatever a disturbed
// round read; rounds too short for that pool the whole run.
func TestTailPerRound(t *testing.T) {
	build := func(rounds, perRound int, slow func(round int) int64) *pass {
		rec := newRecorder(time.Now(), false, rounds*perRound)
		for r := 0; r < rounds; r++ {
			for i := 0; i < perRound; i++ {
				d := int64(1000)
				if i >= perRound-perRound/500 { // the slowest 0.2 % of the round
					d = slow(r)
				}
				rec.samples = append(rec.samples, d<<sampleShift|int64(opWrite))
			}
			rec.samples = append(rec.samples, 5<<sampleShift|int64(opStat)|sampleAuxBit) // not an op
			rec.marks = append(rec.marks, len(rec.samples))
		}
		return &pass{recs: []*recorder{rec}, rounds: rounds}
	}
	p := build(12, 10000, func(r int) int64 {
		if r%2 == 1 {
			return 9_000_000 // every other round is disturbed
		}
		return 300_000 + int64(r)
	})
	got, how := p.tail(p.counted(0, p.rounds))
	if got != 300_002 || !strings.Contains(how, "p99.9") || !strings.Contains(how, "12 rounds") {
		t.Errorf("tail = %d (%s), want 300002: the second best of 12 rounds' p99.9", got, how)
	}
	if n := len(p.counted(3, 5)); n != 20000 {
		t.Errorf("rounds [3,5) hold %d ops, want 20000", n)
	}

	p = build(60, 5, func(r int) int64 { return 70_000 })
	got, how = p.tail(p.counted(0, p.rounds))
	if got != 1000 || !strings.Contains(how, "p90 of all 300") {
		t.Errorf("short rounds: tail = %d (%s), want the run-wide p90", got, how)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %g, %g; want 1, 3", q1, q3)
	}
}

func TestContainAttributesByTime(t *testing.T) {
	disk := func(host int64, write bool, sim time.Duration) event {
		return event{host: host, kind: evDisk, write: write, xfer: sim, cost: 7}
	}
	evs := []event{
		disk(5, false, 1),              // before any op: nobody's child
		disk(15, false, 2),             // op 0: a device read, still fast path
		{host: 32, kind: evCandidate},  // op 2
		disk(33, false, 3),             // op 2
		{host: 34, kind: evLog},        // op 2
		{host: 35, kind: evPass},       // op 2: cleaning outranks its own flush
		{host: 36, kind: evCheckpoint}, // op 2: and a later checkpoint
		disk(45, true, 4),              // op 3
		{host: 46, kind: evLog},        // op 3: flush
		{host: 55, kind: evLog},        // op 4
		{host: 56, kind: evCheckpoint}, // op 4: checkpoint outranks flush
	}
	ops := []opSpan{
		{start: 10, end: 20, kind: opRead},
		{start: 21, end: 29, kind: opStat}, // nothing inside
		{start: 30, end: 40, kind: opWrite},
		{start: 41, end: 50, kind: opWrite},
		{start: 51, end: 60, kind: opSync},
	}
	attrs := contain(ops, evs)
	want := []opAttr{
		{class: classFastpath, first: 1, n: 1, sim: 2, devReads: 1, devCost: 7},
		{class: classFastpath, first: 2, n: 0},
		{class: classClean, first: 2, n: 5, sim: 3, devReads: 1, devCost: 7},
		{class: classFlush, first: 7, n: 2, sim: 4, devCost: 7},
		{class: classCheckpoint, first: 9, n: 2},
	}
	for i := range want {
		if attrs[i] != want[i] {
			t.Errorf("op %d: got %+v, want %+v", i, attrs[i], want[i])
		}
	}

	// The four wall shares count every op once and sum to 1.
	tr := &traced{evs: evs, ops: [][]opSpan{ops}, attrs: [][]opAttr{attrs}, pass: &pass{}}
	var sum float64
	for _, m := range coreLayer(tr, closing{})[:4] {
		sum += m.Value
	}
	if sum < 0.999999 || sum > 1.000001 {
		t.Errorf("wall shares sum to %g, want 1", sum)
	}
}

func TestJudge(t *testing.T) {
	tight := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center * 0.995, center * 1.005}
	}
	wide := func(center float64) []float64 {
		return []float64{center * 0.7, center, center * 1.3, center * 0.8, center * 1.2}
	}
	for _, c := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"same", tight(100), tight(100), true, verdictOK},
		{"slower within bound", tight(100), tight(108), true, verdictOK},
		{"slower beyond bound", tight(100), tight(115), true, verdictWorse},
		{"faster", tight(100), tight(50), true, verdictOK},
		{"throughput fell beyond bound", tight(100), tight(85), false, verdictWorse},
		{"throughput rose", tight(100), tight(130), false, verdictOK},
		{"noisy and overlapping", wide(100), wide(115), true, verdictUnresolved},
		{"noisy but every run better", wide(100), tight(50), true, verdictOK},
		{"noisy but every run worse", wide(100), wide(300), true, verdictWorse},
	} {
		if got, _ := judge(c.a, c.b, c.lowerBetter, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	m := write("BENCHMARK.json", `{"end_to_end":[
		{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1},
		{"name":"op_p50_us","unit":"us","better":"lower","bound":0.1}]}`)
	run := func(ops, p50 float64) string {
		r := &result{Workload: "smallfile", Metrics: []measurement{{"ops_per_s", ops, "1/s"}, {"op_p50_us", p50, "us"}}}
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(line) + "\n"
	}
	a := write("a.jsonl", run(1000, 5)+run(1010, 5.1)+run(990, 4.9))
	same := write("same.jsonl", run(1005, 5)+run(995, 5.05)+run(1000, 4.95))
	slow := write("slow.jsonl", run(800, 5)+run(810, 5.1)+run(790, 4.9))

	var out bytes.Buffer
	worse, err := compareFiles(&out, m, a, same)
	if err != nil || worse {
		t.Fatalf("identical sets: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if got := strings.Count(out.String(), verdictOK); got != 2 {
		t.Errorf("want one ok row per metric, got %d:\n%s", got, out.String())
	}
	out.Reset()
	worse, err = compareFiles(&out, m, a, slow)
	if err != nil || !worse {
		t.Fatalf("20%% slower set: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("no worse row:\n%s", out.String())
	}
}

// TestQuickSmoke runs all five workloads, untraced and traced, at quick
// scale, checks that nothing fails, and checks that the metrics the code
// reports are the ones BENCHMARK.json lists.
func TestQuickSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range manifest.Workloads {
		listed = append(listed, w.Name)
	}
	if strings.Join(listed, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", listed, workloadNames)
	}

	start := time.Now()
	for _, name := range workloadNames {
		cfg := config{workload: name, seed: 1, seconds: 10, quick: true, traceDir: t.TempDir()}
		for _, traced := range []bool{false, true} {
			run, want := runUntraced, manifest.EndToEnd
			if traced {
				run, want = runTraced, manifest.PerLayer
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if res.Failed > 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d attempts failed, first: %s", name, traced, res.Failed, res.Attempted, res.FirstFailure)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, BENCHMARK.json lists %d", name, traced, len(res.Metrics), len(want))
				continue
			}
			for i, m := range res.Metrics {
				if m.Name != want[i].Name || m.Unit != want[i].Unit {
					t.Errorf("%s traced=%v: metric %d is %s [%s], BENCHMARK.json says %s [%s]", name, traced, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
				}
				if m.Value != m.Value || m.Value < 0 && !strings.HasPrefix(m.Name, "obs.") {
					t.Errorf("%s: metric %s = %g", name, m.Name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.traceDir, "trace-"+name+".jsonl")); err != nil {
					t.Errorf("%s: no trace file: %v", name, err)
				}
			}
		}
	}
	if d := time.Since(start); d > 3*time.Second && !testing.Short() {
		t.Logf("quick smoke took %v (target < 3 s on the reference box)", d)
	}
}
