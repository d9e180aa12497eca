package bench

import (
	"fmt"
	"time"

	"repro/internal/disk"
	"repro/internal/workload"
)

// smallFileResult captures one system's three benchmark phases.
type smallFileResult struct {
	name        string
	synchronous bool
	create      time.Duration // elapsed, simulated
	read        time.Duration
	del         time.Duration
	createCPU   time.Duration
	createDisk  time.Duration
}

// RunFig8 reproduces Figure 8: create 10000 one-kilobyte files, read them
// back in creation order, then delete them, on both file systems.
// Part (b) predicts create performance on machines with faster CPUs: the
// LFS create phase saturates the CPU while leaving the disk mostly idle,
// so it scales with CPU speed; SunOS saturates the disk, so it barely
// improves.
func RunFig8(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	n := 10000
	if cfg.Quick {
		n = 800
	}
	w := workload.SmallFiles{NumFiles: n, FileSize: 1024}

	run := func(name string, fs workload.FileSystem, d *disk.Disk, synchronous bool) (*smallFileResult, error) {
		r := &smallFileResult{name: name, synchronous: synchronous}
		phase := func(f func(workload.FileSystem) error, ops int64, bytes int64) (time.Duration, time.Duration, time.Duration, error) {
			pre := d.Stats()
			if err := f(fs); err != nil {
				return 0, 0, 0, err
			}
			dt := d.Stats().Sub(pre).BusyTime
			ct := cfg.CPU.Cost(ops, bytes)
			return Elapsed(ct, dt, synchronous), ct, dt, nil
		}
		var err error
		r.create, r.createCPU, r.createDisk, err = phase(w.CreatePhase, int64(n), int64(n)*int64(w.FileSize))
		if err != nil {
			return nil, fmt.Errorf("%s create: %w", name, err)
		}
		r.read, _, _, err = phase(w.ReadPhase, int64(n), int64(n)*int64(w.FileSize))
		if err != nil {
			return nil, fmt.Errorf("%s read: %w", name, err)
		}
		r.del, _, _, err = phase(w.DeletePhase, int64(n), 0)
		if err != nil {
			return nil, fmt.Errorf("%s delete: %w", name, err)
		}
		return r, nil
	}

	lfs, ld, err := cfg.newLFS()
	if err != nil {
		return nil, err
	}
	defer lfs.Unmount()
	lr, err := run("Sprite LFS", lfs, ld, false)
	if err != nil {
		return nil, err
	}
	ufs, ud, err := cfg.newFFS()
	if err != nil {
		return nil, err
	}
	ur, err := run("SunOS (FFS)", ufs, ud, true)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "fig8",
		Title: fmt.Sprintf("small-file performance: %d files of 1 KB (files/sec, simulated time)", n),
		Columns: []string{"system", "create", "read", "delete",
			"create disk busy", "create CPU busy"},
	}
	for _, r := range []*smallFileResult{lr, ur} {
		diskBusy := float64(r.createDisk) / float64(r.create) * 100
		cpuBusy := float64(r.createCPU) / float64(r.create) * 100
		t.AddRow(r.name,
			fmt.Sprintf("%.0f", rate(n, r.create)),
			fmt.Sprintf("%.0f", rate(n, r.read)),
			fmt.Sprintf("%.0f", rate(n, r.del)),
			fmt.Sprintf("%.0f%%", diskBusy),
			fmt.Sprintf("%.0f%%", cpuBusy))
	}
	t.AddNote("paper: LFS is ~10x SunOS for create and delete, and faster for reads (files packed densely in the log)")
	t.AddNote("paper: LFS kept the disk only 17%% busy during create (CPU-saturated); SunOS kept it 85%% busy")

	// Part (b): predicted create rate with faster CPUs, same disk.
	t.AddNote("figure 8(b): predicted create rate with faster CPUs (same disk)")
	for _, factor := range []float64{1, 2, 4} {
		cpu := cfg.CPU.Faster(factor)
		lCreate := Elapsed(cpu.Cost(int64(n), int64(n)*1024), lr.createDisk, false)
		uCreate := Elapsed(cpu.Cost(int64(n), int64(n)*1024), ur.createDisk, true)
		t.AddNote("%gx Sun-4/260: LFS %.0f files/sec, SunOS %.0f files/sec",
			factor, rate(n, lCreate), rate(n, uCreate))
	}
	return t, nil
}
