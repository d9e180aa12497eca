package bench

import "testing"

// TestBgCleanShape pins what the bgclean table is about — with the cleaner
// in its own goroutine readers get the lock between the steps of a cleaning
// run, inline they wait for the whole run — as the order of trace events,
// not as a race between two host-time p99s (which a loaded two-CPU host
// decided the wrong way once in four runs):
//
//   - inline, no read ends between two cleaning passes unless a mutating
//     operation also ended there, i.e. never inside one run;
//   - in the background, reads end between passes in at least as many gaps
//     as there were runs — one more than there are gaps between runs, so one
//     of them lies inside a run — and a run takes more than one step.
//
// The p99s are logged, not judged.
func TestBgCleanShape(t *testing.T) {
	inline, bg, err := runBgCleanComparison(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if inline.cleanPasses == 0 || bg.cleanPasses == 0 {
		t.Fatalf("cleaner never ran: inline %d passes, background %d passes",
			inline.cleanPasses, bg.cleanPasses)
	}
	if n := inline.steps.quietWithReads; n != 0 {
		t.Errorf("inline: reads ended between the passes of one cleaning run %d times, want never", n)
	}
	if bg.cleanPasses <= bg.kicks {
		t.Errorf("background: %d passes in %d runs; a run should take several steps", bg.cleanPasses, bg.kicks)
	}
	if int64(bg.steps.gapsWithReads) < bg.kicks {
		t.Errorf("background: reads ended in %d of the %d gaps between passes; with %d runs, want at least %d so that one lies inside a run",
			bg.steps.gapsWithReads, bg.steps.passes-1, bg.kicks, bg.kicks)
	}
	t.Logf("inline: %d passes, reads in %d gaps (%d with no mutation), read p99 %v",
		inline.steps.passes, inline.steps.gapsWithReads, inline.steps.quietWithReads, inline.p99)
	t.Logf("background: %d passes in %d runs, reads in %d gaps, read p99 %v",
		bg.steps.passes, bg.kicks, bg.steps.gapsWithReads, bg.p99)
}
