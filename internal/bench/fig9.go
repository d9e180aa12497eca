package bench

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/workload"
)

// RunFig9 reproduces Figure 9: create a large file with sequential
// writes, read it sequentially, write the same volume randomly, read it
// randomly, and read it sequentially again; report the bandwidth of each
// phase for both file systems.
func RunFig9(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	fileSize := int64(100 << 20) // the paper's 100 MB
	if cfg.Quick {
		fileSize = 8 << 20
	}
	const chunk = 56 * 1024 // a multiple of both 4 KB and 8 KB blocks
	w := workload.LargeFile{Path: "/bigfile", FileSize: fileSize, ChunkSize: chunk, RandomChunkSize: 8192, Seed: cfg.Seed}
	nChunks := int(fileSize / chunk)

	type phase struct {
		name string
		f    func(workload.FileSystem) error
	}
	phases := []phase{
		{"write seq", w.SequentialWrite},
		{"read seq", w.SequentialRead},
		{"write rand", w.RandomWrite},
		{"read rand", w.RandomRead},
		{"reread seq", w.SequentialRead},
	}

	run := func(fs workload.FileSystem, d *disk.Disk, synchronous bool) ([]float64, error) {
		var out []float64
		for _, p := range phases {
			pre := d.Stats()
			if err := p.f(fs); err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			dt := d.Stats().Sub(pre).BusyTime
			ops := int64(nChunks)
			if p.name == "write rand" || p.name == "read rand" {
				ops = fileSize / 8192
			}
			ct := cfg.CPU.Cost(ops, fileSize)
			el := Elapsed(ct, dt, synchronous)
			out = append(out, kbPerSec(fileSize, el))
		}
		return out, nil
	}

	lfs, ld, err := cfg.newLFS()
	if err != nil {
		return nil, err
	}
	defer lfs.Unmount()
	lr, err := run(lfs, ld, false)
	if err != nil {
		return nil, fmt.Errorf("lfs: %w", err)
	}
	ufs, ud, err := cfg.newFFS()
	if err != nil {
		return nil, err
	}
	ur, err := run(ufs, ud, true)
	if err != nil {
		return nil, fmt.Errorf("ffs: %w", err)
	}

	t := &Table{
		ID:      "fig9",
		Title:   fmt.Sprintf("large-file performance: %d MB file, KB/sec (simulated time)", fileSize>>20),
		Columns: []string{"phase", "Sprite LFS", "SunOS (FFS)", "LFS/FFS"},
	}
	for i, p := range phases {
		t.AddRow(p.name,
			fmt.Sprintf("%.0f", lr[i]),
			fmt.Sprintf("%.0f", ur[i]),
			fmt.Sprintf("%.2fx", lr[i]/ur[i]))
	}
	t.AddNote("paper: LFS has higher write bandwidth in all cases (random writes become sequential log writes)")
	t.AddNote("paper: read bandwidth is similar except rereading sequentially a file that was written randomly, where SunOS wins")
	return t, nil
}
