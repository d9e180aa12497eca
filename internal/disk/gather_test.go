package disk

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestWriteBlocksMatchesWrite issues one 7-block request as WriteBlocks of
// four uneven pieces on one device and as Write of their concatenation on
// another, clean, torn after every k blocks, and refused by a media fault
// at every address, and requires the same answer from both: error, Stats,
// trace event, metrics counters and persisted blocks.
func TestWriteBlocksMatchesWrite(t *testing.T) {
	const bs, base, n = 4096, 20, 7
	var pieces [][]byte
	for i, blocks := range []int{1, 2, 1, 3} {
		pieces = append(pieces, bytes.Repeat([]byte{byte(0x10 + i)}, blocks*bs))
	}
	all := bytes.Join(pieces, nil)
	type arm struct {
		name    string
		set     func(d *Disk)
		persist int // blocks that must land
	}
	arms := []arm{{"clean", func(*Disk) {}, n}}
	for k := 0; k <= n; k++ {
		arms = append(arms, arm{fmt.Sprintf("torn-after-%d", k), func(d *Disk) { d.FailAfterWrites(int64(k)) }, k})
	}
	for a := 0; a < n; a++ {
		arms = append(arms, arm{fmt.Sprintf("write-fault-at-%d", a), func(d *Disk) {
			if err := d.InjectFault(Fault{Kind: FaultWriteError, Addr: base + int64(a)}); err != nil {
				t.Fatal(err)
			}
		}, a})
	}
	type outcome struct {
		err      string
		stats    Stats
		events   []obs.Event
		counters map[string]int64
		image    []byte
	}
	run := func(a arm, gather bool) outcome {
		d := MustNew(testGeo(64))
		sink := obs.NewRingSink(8)
		d.SetTracer(obs.New(sink))
		a.set(d)
		var err error
		if gather {
			err = d.WriteBlocks(base, pieces)
		} else {
			err = d.Write(base, all)
		}
		o := outcome{stats: d.Stats(), events: sink.Events(), counters: d.tr.Metrics().Counters}
		if err != nil {
			o.err = err.Error()
		}
		for i := int64(0); i < n; i++ {
			b, _ := d.Peek(base + i)
			o.image = append(o.image, b...)
		}
		return o
	}
	for _, a := range arms {
		g, w := run(a, true), run(a, false)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: WriteBlocks %+v\nWrite of the concatenation %+v", a.name, g, w)
		}
		want := append(append([]byte{}, all[:a.persist*bs]...), make([]byte, (n-a.persist)*bs)...)
		if !bytes.Equal(g.image, want) {
			t.Errorf("%s: WriteBlocks persisted the wrong blocks, want the first %d", a.name, a.persist)
		}
	}

	d := MustNew(testGeo(64))
	if err := d.WriteBlocks(base, [][]byte{make([]byte, bs), make([]byte, 100)}); !errors.Is(err, ErrBadSize) {
		t.Fatalf("a short piece: err = %v, want ErrBadSize", err)
	}
	if st := d.Stats(); st != (Stats{}) {
		t.Fatalf("a refused request was charged: %+v", st)
	}
}

// BenchmarkWriteBlocks is the device's row for one 127-block partial
// write: "gather" hands WriteBlocks the staged blocks as they are,
// "assembled" copies them into one run buffer and calls Write — the log
// writer's path before the gather write.
func BenchmarkWriteBlocks(b *testing.B) {
	const bs, n = 4096, 127
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte(i)}, bs)
	}
	run := make([]byte, n*bs)
	for _, assembled := range []bool{false, true} {
		name := "gather"
		if assembled {
			name = "assembled"
		}
		b.Run(name, func(b *testing.B) {
			d := MustNew(testGeo(256))
			b.SetBytes(n * bs)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if assembled {
					for j, blk := range blocks {
						copy(run[j*bs:], blk)
					}
					err = d.Write(1, run)
				} else {
					err = d.WriteBlocks(1, blocks)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
