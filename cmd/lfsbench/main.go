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
		exp     = fl.String("exp", "all", "experiment to run (see -list), or \"all\"")
		quick   = fl.Bool("quick", false, "use scaled-down disks and workloads")
		seed    = fl.Int64("seed", 42, "random seed")
		list    = fl.Bool("list", false, "list experiments and exit")
		trace   = fl.String("trace", "", "write a JSONL event trace to this file")
		metrics = fl.Bool("metrics", false, "print the obs metrics snapshot after the run")
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

	// work runs the selected experiments; the trace is closed whatever it
	// returns, and its own error is the one reported.
	work := func() error {
		exps := bench.Experiments()
		if *exp != "all" {
			e, err := bench.Lookup(*exp)
			if err != nil {
				return err
			}
			exps = []bench.Experiment{e}
		}
		for _, e := range exps {
			start := time.Now()
			tbl, err := e.Run(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			fmt.Fprintln(stdout, tbl.String())
			fmt.Fprintf(stdout, "(ran in %v host time)\n\n", time.Since(start).Round(time.Millisecond))
		}
		if *metrics {
			fmt.Fprintln(stdout, "obs metrics:")
			fmt.Fprintln(stdout, cfg.Tracer.Metrics().String())
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
