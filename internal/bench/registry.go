package bench

import (
	"fmt"
	"sort"
)

// Experiment is a named, runnable reproduction of one paper result.
type Experiment struct {
	Name string
	// What the experiment reproduces.
	Description string
	Run         func(Config) (*Table, error)
}

// Experiments returns every experiment, in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "disk I/O to create two small files, LFS vs FFS", RunFig1},
		{"fig3", "write cost formula vs cleaned-segment utilization", RunFig3},
		{"fig4", "simulated write cost vs disk utilization (greedy)", RunFig4},
		{"fig5", "segment utilization distributions, greedy cleaner", RunFig5},
		{"fig6", "bimodal distribution under cost-benefit", RunFig6},
		{"fig7", "write cost, greedy vs cost-benefit", RunFig7},
		{"fig8", "small-file create/read/delete benchmark", RunFig8},
		{"fig9", "large-file five-phase benchmark", RunFig9},
		{"fig10", "segment utilizations of a production-like FS", RunFig10},
		{"table2", "cleaning statistics for five production-like FSs", RunTable2},
		{"table3", "crash recovery time matrix", RunTable3},
		{"table4", "disk space and log bandwidth by block type", RunTable4},
		{"ablation-policy", "cost-benefit vs greedy on the real FS", RunAblationPolicy},
		{"ablation-agesort", "age sorting on/off", RunAblationAgeSort},
		{"ablation-segsize", "segment size sweep", RunAblationSegmentSize},
		{"ablation-checkpoint", "checkpoint interval sweep", RunAblationCheckpointInterval},
		{"ablation-writebuffer", "write buffer size sweep", RunAblationWriteBuffer},
		{"ablation-thresholds", "cleaner water marks sweep", RunAblationThresholds},
		{"ablation-cleanread", "whole-segment vs live-only cleaning reads", RunAblationCleanRead},
		{"cleaner-gap", "core.FS vs cleansim on one hot-and-cold trace, and the cleaner sizing sweep", RunCleanerGap},
		{"bgclean", "reader latency during cleaning: inline vs background cleaner", RunBgClean},
		{"groupcommit", "concurrent writers: grouped vs serialized log admission", RunGroupCommit},
		{"nvsync", "sync-per-small-file: NVRAM-absorbed vs inline durability", RunNVSync},
		{"readpath", "single-block reads: warm cache vs pooled uncached path", RunReadPath},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, nil
		}
	}
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", name, names)
}
