package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/layout"
)

// req is one device request planReads issued: n blocks at addr.
type req struct{ addr, n int64 }

// TestPlanReads pins the requests of the one run planner behind every log
// read, without a device: a table of wanted addresses × gap × the next
// summary's address × request limit × the blocks that fail, against the
// exact requests in the order issued and the indexes whose block came back
// with an error.
func TestPlanReads(t *testing.T) {
	const none = layout.NilAddr
	cases := []struct {
		name   string
		want   []int64
		gap    int64
		ahead  int64
		limit  int64   // 0: 128, a default segment
		bad    []int64 // addresses a request fails on
		reqs   []req
		failed []int // indexes of want got with an error
	}{
		{name: "empty", want: nil, gap: 3, ahead: 7},
		{name: "gap 0 reads adjacent runs", want: []int64{10, 11, 12, 15, 16}, ahead: none,
			reqs: []req{{10, 3}, {15, 2}}},
		{name: "gap 0 never reads an unwanted block", want: []int64{10, 12, 14}, ahead: none,
			reqs: []req{{10, 1}, {12, 1}, {14, 1}}},
		{name: "gap 3 reads through 3", want: []int64{10, 12, 16, 20}, gap: 3, ahead: none,
			reqs: []req{{10, 11}}},
		{name: "gap 3 skips 4", want: []int64{10, 15, 16}, gap: 3, ahead: none,
			reqs: []req{{10, 1}, {15, 2}}},
		{name: "gap 0 summary rides when adjacent", want: []int64{10, 11}, ahead: 12,
			reqs: []req{{10, 3}}},
		{name: "gap 0 summary past a block stays", want: []int64{10, 11}, ahead: 13,
			reqs: []req{{10, 2}}},
		{name: "gap 3 summary rides within the gap", want: []int64{10}, gap: 3, ahead: 14,
			reqs: []req{{10, 5}}},
		{name: "gap 3 summary beyond the gap stays", want: []int64{10}, gap: 3, ahead: 15,
			reqs: []req{{10, 1}}},
		{name: "summary behind the run stays", want: []int64{10}, gap: 3, ahead: 8,
			reqs: []req{{10, 1}}},
		{name: "summary rides the last run only", want: []int64{10, 20}, gap: 3, ahead: 21,
			reqs: []req{{10, 1}, {20, 2}}},
		{name: "descending, repeated and nil addresses", want: []int64{5, 7, 7, 3, none, 4}, gap: 3, ahead: none,
			reqs: []req{{5, 3}, {7, 1}, {3, 1}, {4, 1}}},
		{name: "gap 0 repeated address", want: []int64{5, 5, 6}, ahead: none,
			reqs: []req{{5, 1}, {5, 2}}},
		{name: "failed request reads each wanted block alone", want: []int64{10, 11, 13}, gap: 3, ahead: none,
			bad:  []int64{12},
			reqs: []req{{10, 4}, {10, 1}, {11, 1}, {13, 1}}},
		{name: "a fault costs the block it sits on", want: []int64{10, 11, 13}, gap: 3, ahead: none,
			bad:    []int64{11},
			reqs:   []req{{10, 4}, {10, 1}, {11, 1}, {13, 1}},
			failed: []int{1}},
		{name: "a fault under the riding summary", want: []int64{10}, ahead: 11,
			bad:  []int64{11},
			reqs: []req{{10, 2}, {10, 1}}},
		{name: "only the failed request falls back", want: []int64{10, 11, 20, 21}, ahead: none,
			bad:    []int64{20},
			reqs:   []req{{10, 2}, {20, 2}, {20, 1}, {21, 1}},
			failed: []int{2}},
		{name: "no request exceeds the limit", want: []int64{10, 11, 12, 13, 14, 17}, gap: 3, ahead: none, limit: 4,
			reqs: []req{{10, 4}, {14, 4}}},
		{name: "the summary rides within the limit only", want: []int64{10, 11}, ahead: 12, limit: 2,
			reqs: []req{{10, 2}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var reqs []req
			var failed []int
			read := func(addr, n int64) error {
				reqs = append(reqs, req{addr, n})
				for _, b := range c.bad {
					if b >= addr && b < addr+n {
						return &disk.MediaError{Addr: b}
					}
				}
				return nil
			}
			var gotK []int
			limit := c.limit
			if limit == 0 {
				limit = 128
			}
			planReads(c.want, c.gap, c.ahead, limit, read, func(k int, err error) {
				gotK = append(gotK, k)
				if err != nil {
					failed = append(failed, k)
				}
			})
			if !reflect.DeepEqual(reqs, c.reqs) {
				t.Errorf("requests %v, want %v", reqs, c.reqs)
			}
			if !reflect.DeepEqual(failed, c.failed) {
				t.Errorf("failed indexes %v, want %v", failed, c.failed)
			}
			var wantK []int
			for k, a := range c.want {
				if a != layout.NilAddr {
					wantK = append(wantK, k)
				}
			}
			if !reflect.DeepEqual(gotK, wantK) {
				t.Errorf("got called for %v, want every non-nil index in order, %v", gotK, wantK)
			}
		})
	}
}

// TestCleanReadRequestsPinned replays one overwrite script under each
// CleanRead mode and pins the device's read traffic — requests, blocks and
// the busy time of the whole run — to the values the cleaner's own run loop
// gave before planReads replaced it: the planner changed no request. The
// pins were re-taken once since, when buffer-full flushes began ending at
// segment boundaries with the dirlog beside the inode blocks (a new image:
// 184 → 187 cleaning passes, planned 3306 reads / 20943 blocks /
// 224595951980 ns, whole 736 / 23552 / 209408569037, live 4062 / 19428 /
// 229807733118 before).
func TestCleanReadRequestsPinned(t *testing.T) {
	pins := map[CleanReadMode]struct {
		reads, blocks int64
		busy          time.Duration
	}{
		CleanReadPlanned: {3367, 21311, 228940263416},
		CleanReadWhole:   {748, 23936, 213546923855},
		CleanReadLive:    {4192, 19750, 234896670732},
	}
	for _, mode := range []CleanReadMode{CleanReadPlanned, CleanReadWhole, CleanReadLive} {
		t.Run(mode.String(), func(t *testing.T) {
			opts := testOptions()
			opts.CleanRead = mode
			fs, d := newTestFS(t, 1024, opts)
			path := func(i int) string { return fmt.Sprintf("/d%d/f%03d", i%4, i) }
			for i := 0; i < 4; i++ {
				if err := fs.Mkdir(fmt.Sprintf("/d%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			const nfiles = 300
			for i := 0; i < nfiles; i++ {
				if err := fs.WriteFile(path(i), content(path(i), 1, 1+i%3)); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(1))
			for n := 0; n < 1500; n++ {
				i := rng.Intn(nfiles)
				if rng.Intn(10) != 0 {
					i %= nfiles / 10 // 90 % of the overwrites go to a hot tenth
				}
				if err := fs.WriteFile(path(i), content(path(i), 2+n, 1+n%3)); err != nil {
					t.Fatal(err)
				}
			}
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
			st, passes := d.Stats(), fs.Stats().CleaningPasses
			if passes < 20 {
				t.Fatalf("%d cleaning passes: the script did not press the cleaner", passes)
			}
			t.Logf("%d passes: %d reads, %d blocks, busy %v", passes, st.ReadOps, st.BlocksRead, st.BusyTime)
			if p := pins[mode]; st.ReadOps != p.reads || st.BlocksRead != p.blocks || st.BusyTime != p.busy {
				t.Errorf("disk reads %d, blocks %d, busy %v; want %d, %d, %v",
					st.ReadOps, st.BlocksRead, st.BusyTime, p.reads, p.blocks, p.busy)
			}
			mustCheck(t, fs)
		})
	}
}
