// Command lfsim runs the paper's Section 3.5 cleaning-policy simulator
// directly, for exploring policies beyond the stock figures.
//
//	lfsim -util 0.75 -pattern hotcold -policy costbenefit -agesort
//	lfsim -sweep -pattern uniform
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cleansim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind main: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("lfsim", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		util    = fl.Float64("util", 0.75, "disk capacity utilization")
		pattern = fl.String("pattern", "uniform", "access pattern: uniform or hotcold")
		hotF    = fl.Float64("hotfiles", 0.1, "hot group size (fraction of files)")
		hotA    = fl.Float64("hotaccess", 0.9, "hot group share of writes")
		policy  = fl.String("policy", "greedy", "cleaning policy: greedy or costbenefit")
		ageSort = fl.Bool("agesort", false, "sort live blocks by age when cleaning")
		segs    = fl.Int("segments", 256, "disk size in segments")
		segBlk  = fl.Int("segblocks", 128, "segment size in 4 KB blocks")
		seed    = fl.Int64("seed", 42, "random seed")
		sweep   = fl.Bool("sweep", false, "sweep utilization 0.1..0.9 instead of a single run")
		hist    = fl.Bool("hist", false, "print the segment-utilization histogram")
	)
	if err := fl.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	cfg := cleansim.Config{
		NumSegments:   *segs,
		SegmentBlocks: *segBlk,
		AgeSort:       *ageSort,
		Seed:          *seed,
		WarmupWrites:  60,
		MeasureWrites: 20,
	}
	switch *pattern {
	case "uniform":
		cfg.Pattern = cleansim.Uniform{}
	case "hotcold":
		cfg.Pattern = cleansim.HotCold{HotFiles: *hotF, HotAccesses: *hotA}
	default:
		fmt.Fprintln(stderr, "lfsim: unknown pattern", *pattern)
		return 2
	}
	switch *policy {
	case "greedy":
		cfg.Policy = cleansim.Greedy
	case "costbenefit":
		cfg.Policy = cleansim.CostBenefit
	default:
		fmt.Fprintln(stderr, "lfsim: unknown policy", *policy)
		return 2
	}

	runOne := func(u float64) error {
		c := cfg
		c.DiskUtilization = u
		res, err := cleansim.Run(c)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "util=%.2f  pattern=%-22s policy=%-12s agesort=%-5v  write cost=%6.2f  cleaned=%d (%.0f%% empty, avg u=%.3f)\n",
			u, cfg.Pattern.Name(), cfg.Policy, cfg.AgeSort, res.WriteCost,
			res.SegmentsCleaned,
			100*float64(res.SegmentsCleanedEmpty)/float64(max(1, res.SegmentsCleaned)),
			res.AvgCleanedUtilization)
		if *hist {
			for i := 0; i < cleansim.Bins; i += 5 {
				var v float64
				for j := i; j < i+5 && j < cleansim.Bins; j++ {
					v += res.UtilizationHistogram[j]
				}
				bar := ""
				for k := 0; k < int(v*150); k++ {
					bar += "#"
				}
				fmt.Fprintf(stdout, "  %.2f-%.2f %6.3f %s\n", float64(i)/cleansim.Bins, float64(i+5)/cleansim.Bins, v, bar)
			}
		}
		return nil
	}

	utils := []float64{*util}
	if *sweep {
		utils = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	}
	for _, u := range utils {
		if err := runOne(u); err != nil {
			fmt.Fprintln(stderr, "lfsim:", err)
			return 1
		}
	}
	return 0
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
