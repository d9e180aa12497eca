package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestLfsimShortRun: one small simulation prints its result line and the
// histogram; unknown patterns, policies and flags exit 2.
func TestLfsimShortRun(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-segments", "32", "-segblocks", "16", "-util", "0.5", "-pattern", "hotcold", "-policy", "costbenefit", "-agesort", "-hist"}
	if st := run(args, &out, &errOut); st != 0 {
		t.Fatalf("exit %d: %s", st, errOut.String())
	}
	if !strings.Contains(out.String(), "util=0.50") || !strings.Contains(out.String(), "write cost=") || !strings.Contains(out.String(), "0.00-0.10") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
	for _, bad := range [][]string{{"-pattern", "zipf"}, {"-policy", "random"}, {"-nosuchflag"}} {
		if st := run(bad, &out, &errOut); st != 2 {
			t.Fatalf("lfsim %v: exit %d, want 2", bad, st)
		}
	}
}
