// Command benchmark is the repository's benchmark: five closed-loop
// workloads over the public lfs API, end-to-end metrics from an untraced
// run and per-layer metrics from a traced run of the same script. See
// README.md in this directory and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
)

// result is one run of one workload, as appended to the -out file.
type result struct {
	Workload     string        `json:"workload"`
	Seed         int64         `json:"seed"`
	Trace        bool          `json:"trace"`
	Attempted    int64         `json:"attempted"`
	Failed       int64         `json:"failed"`
	FirstFailure string        `json:"first_failure,omitempty"`
	Notes        []string      `json:"notes,omitempty"`
	Metrics      []measurement `json:"-"`
}

// add counts attempts and failures, keeping the first failure's text.
func (r *result) add(attempted, failed int64, first string) {
	r.Attempted += attempted
	r.Failed += failed
	if r.FirstFailure == "" {
		r.FirstFailure = first
	}
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) metricMap() map[string]valueUnit {
	m := make(map[string]valueUnit, len(r.Metrics))
	for _, x := range r.Metrics {
		m[x.Name] = valueUnit{x.Value, x.Unit}
	}
	return m
}

// MarshalJSON adds the metrics as a name → {value, unit} object.
func (r *result) MarshalJSON() ([]byte, error) {
	type plain result
	return json.Marshal(struct {
		*plain
		Metrics map[string]valueUnit `json:"metrics"`
	}{(*plain)(r), r.metricMap()})
}

// contractLine is the last line of standard output the benchmark
// contract asks for: exactly these four keys.
func (r *result) contractLine() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.metricMap()})
}

func (r *result) print() {
	for _, m := range r.Metrics {
		fmt.Printf("%s/%s %s %s\n", r.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	for _, n := range r.Notes {
		fmt.Printf("# %s: %s\n", r.Workload, n)
	}
	if r.Failed > 0 {
		fmt.Printf("# %s: %d of %d attempts FAILED, first: %s\n", r.Workload, r.Failed, r.Attempted, r.FirstFailure)
	}
}

func appendResult(path string, r *result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all five)")
		seed     = flag.Int64("seed", 1, "derives every generated path, payload and op sequence")
		seconds  = flag.Float64("seconds", 15, "length of a measured section; whole rounds run until it has passed")
		trace    = flag.String("trace", "", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; default both")
		out      = flag.String("out", "", "append each run's result to this file, one JSON object per line")
		quick    = flag.Bool("quick", false, "one round of ≈1 % op counts per run (smoke test)")
		traceDir = flag.String("tracedir", "benchmark/out", "directory the traced run writes trace-<workload>.jsonl to; empty writes none")
		compare  = flag.Bool("compare", false, "compare two -out files: benchmark -compare A.jsonl B.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.jsonl B.jsonl")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	modes := []bool{false, true}
	if *trace != "" {
		traced, err := strconv.ParseBool(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: -trace %q: want 0 or 1\n", *trace)
			os.Exit(2)
		}
		modes = []bool{traced}
	}

	var last *result
	failed := false
	for _, name := range names {
		for _, traced := range modes {
			cfg := config{workload: name, seed: *seed, seconds: *seconds, quick: *quick, traceDir: *traceDir}
			run := runUntraced
			if traced {
				run = runTraced
			}
			res, err := run(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
			res.print()
			if *out != "" {
				if err := appendResult(*out, res); err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					os.Exit(1)
				}
			}
			failed = failed || res.Failed > 0
			last = res
		}
	}
	// A run of one workload in one mode is what the benchmark contract
	// drives; its last line is the contract's JSON object.
	if len(names) == 1 && len(modes) == 1 {
		line, err := last.contractLine()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
	}
	if failed {
		os.Exit(1)
	}
}
