// Command lfsbench regenerates the tables and figures of the LFS paper's
// evaluation. Every result is reported in simulated disk time on a
// Wren IV-model device, so runs are deterministic and host-independent.
//
// Usage:
//
//	lfsbench -list
//	lfsbench -exp fig8
//	lfsbench -exp all -quick
//	lfsbench -exp table2 -trace run.jsonl -metrics
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind main: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("lfsbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		exp      = fl.String("exp", "all", "experiment to run (see -list), or \"all\"")
		quick    = fl.Bool("quick", false, "use scaled-down disks and workloads")
		seed     = fl.Int64("seed", 42, "random seed")
		list     = fl.Bool("list", false, "list experiments and exit")
		trace    = fl.String("trace", "", "write a JSONL event trace to this file")
		metrics  = fl.Bool("metrics", false, "print the obs metrics snapshot after the run")
		snapshot = fl.String("snapshot", "", "run the snapshot grids (groupcommit, nvsync, readpath) and write structured results to this JSON file, merging by grid name if it exists")
		check    = fl.String("check", "", "regression gate: rerun the snapshot grids at BASELINE's scale and seed and fail if any gated metric leaves its tolerance band")
	)
	if err := fl.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Fprintf(stdout, "%-22s %s\n", e.Name, e.Description)
		}
		return 0
	}

	cfg := bench.Config{Quick: *quick, Seed: *seed}
	var jsink *obs.JSONLSink
	var traceFile *os.File
	var traceBuf *bufio.Writer
	if *trace != "" || *metrics {
		var sink obs.Sink
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				fmt.Fprintln(stderr, "lfsbench:", err)
				return 1
			}
			traceFile = f
			traceBuf = bufio.NewWriter(f)
			jsink = obs.NewJSONLSink(traceBuf)
			sink = jsink
		}
		cfg.Tracer = obs.New(sink)
	}
	closeTrace := func() error {
		if traceFile == nil {
			return nil
		}
		if err := traceBuf.Flush(); err != nil {
			return fmt.Errorf("flush trace: %w", err)
		}
		if err := traceFile.Close(); err != nil {
			return fmt.Errorf("close trace: %w", err)
		}
		if err := jsink.Err(); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		return nil
	}

	runExp := func(e bench.Experiment) error {
		start := time.Now()
		tbl, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprintln(stdout, tbl.String())
		fmt.Fprintf(stdout, "(ran in %v host time)\n\n", time.Since(start).Round(time.Millisecond))
		return nil
	}

	// work is the selected mode; the trace is closed whatever it returns,
	// and its own error is the one reported.
	work := func() error {
		switch {
		case *check != "":
			if err := checkSnapshot(cfg, *check, stderr); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "regression gate passed against %s\n", *check)
		case *snapshot != "":
			if err := writeSnapshot(cfg, *snapshot); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", *snapshot)
		default:
			exps := bench.Experiments()
			if *exp != "all" {
				e, err := bench.Lookup(*exp)
				if err != nil {
					return err
				}
				exps = []bench.Experiment{e}
			}
			for _, e := range exps {
				if err := runExp(e); err != nil {
					return err
				}
			}
			if *metrics {
				fmt.Fprintln(stdout, "obs metrics:")
				fmt.Fprintln(stdout, cfg.Tracer.Metrics().String())
			}
		}
		return nil
	}
	err := work()
	if cerr := closeTrace(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "lfsbench:", err)
		return 1
	}
	return 0
}

// writeSnapshot runs the grids (bench.Snapshot holds the schema of the
// BENCH_<date>.json artifact) and writes them to path. When path
// already exists — the same-day rerun case — the new grids are merged
// into it key by key instead of clobbering the file, so keys a newer
// schema doesn't know about survive and a partial rerun never silently
// discards grids recorded by an earlier run.
func writeSnapshot(cfg bench.Config, path string) error {
	snap, err := bench.RunSnapshot(cfg, time.Now().UTC().Format("2006-01-02"))
	if err != nil {
		return err
	}
	fresh, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	merged := make(map[string]json.RawMessage)
	if prev, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(prev, &merged); err != nil {
			return fmt.Errorf("existing %s is not a snapshot object (refusing to overwrite): %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	var freshKeys map[string]json.RawMessage
	if err := json.Unmarshal(fresh, &freshKeys); err != nil {
		return err
	}
	for k, v := range freshKeys {
		merged[k] = v
	}
	out, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// checkSnapshot is the CI regression gate: rerun the grids at the
// baseline's scale and seed and compare every gated (host-independent)
// metric against its tolerance band.
func checkSnapshot(cfg bench.Config, path string, stderr io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base bench.Snapshot
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	if len(base.GroupCommit) == 0 && len(base.NVSync) == 0 && len(base.ReadPath) == 0 {
		return fmt.Errorf("baseline %s contains no grids", path)
	}
	// The gate must compare like with like: adopt the baseline's scale
	// and seed, whatever the command line said.
	cfg.Quick = base.Quick
	cfg.Seed = base.Seed
	fresh, err := bench.RunSnapshot(cfg, base.Date)
	if err != nil {
		return err
	}
	regs := bench.CompareSnapshots(&base, fresh)
	if len(regs) == 0 {
		return nil
	}
	for _, r := range regs {
		fmt.Fprintln(stderr, "lfsbench: regression:", r)
	}
	return fmt.Errorf("%d metric(s) regressed against %s", len(regs), path)
}
