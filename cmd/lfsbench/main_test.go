package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestLfsbenchList: -list names every experiment and runs none; an unknown
// experiment exits 1, an unknown flag 2.
func TestLfsbenchList(t *testing.T) {
	var out, errOut bytes.Buffer
	if st := run([]string{"-list"}, &out, &errOut); st != 0 {
		t.Fatalf("exit %d: %s", st, errOut.String())
	}
	for _, e := range bench.Experiments() {
		if !strings.Contains(out.String(), e.Name) {
			t.Errorf("-list omits %s", e.Name)
		}
	}
	if st := run([]string{"-exp", "nosuchexp"}, &out, &errOut); st != 1 || !strings.Contains(errOut.String(), "lfsbench:") {
		t.Fatalf("unknown experiment: exit %d, stderr %q", st, errOut.String())
	}
	if st := run([]string{"-nosuchflag"}, &out, &errOut); st != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", st)
	}
}
