package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// manifest is the part of BENCHMARK.json the comparison needs: each
// end-to-end metric's direction and the share of the baseline's median by
// which it may get worse.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// readRuns loads an -out file and groups the untraced runs' values by
// workload and metric.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		var r struct {
			Workload string               `json:"workload"`
			Trace    bool                 `json:"trace"`
			Metrics  map[string]valueUnit `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if r.Trace {
			continue
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], v.Value)
		}
	}
	return runs, sc.Err()
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return ratio(q3-q1, median(v))
}

const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies a metric's bound in its direction: b is worse when its
// median is worse than a's by more than bound × a's median. Where either
// side's run-to-run spread is wider than the bound the medians cannot
// settle it; then only a clean separation of the two sets counts, and
// anything else is unresolved (choosing-metrics guide, section 6).
func judge(a, b []float64, lowerBetter bool, bound float64) (verdict string, worseBy float64) {
	ma, mb := median(a), median(b)
	worseBy = ratio(mb-ma, ma)
	if !lowerBetter {
		worseBy = -worseBy
	}
	if spread(a) <= bound && spread(b) <= bound {
		if worseBy > bound {
			return verdictWorse, worseBy
		}
		return verdictOK, worseBy
	}
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			better := y < x
			if !lowerBetter {
				better = y > x
			}
			allBetter = allBetter && better
			allWorse = allWorse && !better && y != x
		}
	}
	switch {
	case allBetter:
		return verdictOK, worseBy
	case allWorse && worseBy > bound:
		return verdictWorse, worseBy
	}
	return verdictUnresolved, worseBy
}

// compareFiles prints one row per workload × end-to-end metric comparing
// the runs in file b against the baseline runs in file a, and reports
// whether any row is worse.
func compareFiles(w io.Writer, manifestPath, a, b string) (anyWorse bool, err error) {
	m, err := readManifest(manifestPath)
	if err != nil {
		return false, err
	}
	runsA, err := readRuns(a)
	if err != nil {
		return false, err
	}
	runsB, err := readRuns(b)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn A\tmedian A\tspread A\tn B\tmedian B\tspread B\tworse by\tbound\tverdict")
	for _, wl := range workloadNames {
		if runsA[wl] == nil || runsB[wl] == nil {
			continue
		}
		for _, e := range m.EndToEnd {
			va, vb := runsA[wl][e.Name], runsB[wl][e.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, worseBy := judge(va, vb, e.Better == "lower", e.Bound)
			anyWorse = anyWorse || verdict == verdictWorse
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.6g\t%.2f%%\t%d\t%.6g\t%.2f%%\t%+.2f%%\t%.0f%%\t%s\n",
				wl, e.Name, e.Unit, len(va), median(va), 100*spread(va), len(vb), median(vb), 100*spread(vb),
				100*worseBy, 100*e.Bound, verdict)
		}
	}
	return anyWorse, tw.Flush()
}
