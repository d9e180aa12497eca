package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// RunTable3 reproduces Table 3: recovery time for various crash
// configurations. A program creates one, ten, or fifty megabytes of
// fixed-size files after the last checkpoint, the machine crashes, and
// the table reports how long the roll-forward recovery takes. As in the
// paper, the file system uses an infinite checkpoint interval and never
// checkpoints during the run, so recovery has to roll the whole workload
// forward. Recovery time is dominated by the number of files recovered.
func RunTable3(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	fileSizes := []int{1 << 10, 10 << 10, 100 << 10}
	dataSizes := []int64{1 << 20, 10 << 20, 50 << 20}
	if cfg.Quick {
		dataSizes = []int64{1 << 20, 4 << 20, 8 << 20}
	}

	t := &Table{
		ID:    "table3",
		Title: "recovery time in seconds (simulated) for various crash configurations",
		Columns: append([]string{"file size"}, func() []string {
			var cols []string
			for _, d := range dataSizes {
				cols = append(cols, fmt.Sprintf("%d MB recovered", d>>20))
			}
			return cols
		}()...),
	}

	for _, fsize := range fileSizes {
		row := []string{fmt.Sprintf("%d KB", fsize>>10)}
		for _, dsize := range dataSizes {
			secs, err := measureRecovery(cfg, fsize, dsize)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", secs.Seconds()))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper (Sun-4/260, Wren IV): 1 KB files {1, 21, 132}s; 10 KB {<1, 3, 17}s; 100 KB {<1, 1, 8}s")
	t.AddNote("recovery time grows with the number of files, not the volume of data (Section 5.3)")
	return t, nil
}

// measureRecovery formats a fresh file system, checkpoints, writes
// dataSize bytes as fileSize-byte files, cuts power, and times the
// roll-forward mount in simulated disk time plus per-file CPU cost.
func measureRecovery(cfg Config, fileSize int, dataSize int64) (time.Duration, error) {
	nfiles := int(dataSize / int64(fileSize))
	blocks := cfg.diskBlocks()
	// Small files occupy whole 4 KB blocks; leave generous log headroom
	// so no cleaning happens during the run (the paper measures pure
	// roll-forward cost).
	blocksPerFile := int64((fileSize + 4095) / 4096)
	if need := 4 * int64(nfiles) * (blocksPerFile + 1); need > blocks {
		blocks = need
	}
	fs, d, err := cfg.newLFSFixedSize(blocks)
	if err != nil {
		return 0, err
	}
	if err := fs.Checkpoint(); err != nil {
		return 0, err
	}
	payload := make([]byte, fileSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := 0; i < nfiles; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/r%06d", i), payload); err != nil {
			return 0, fmt.Errorf("write %d: %w", i, err)
		}
	}
	if err := fs.Sync(); err != nil {
		return 0, err
	}
	d.Crash()
	// The crashed mount's committer goroutine would pin it and the disk;
	// unmounting while the device is dead stops it and writes nothing.
	_ = fs.Unmount()
	d.Reopen()

	pre := d.Stats()
	fs2, err := core.Mount(d, core.Options{})
	if err != nil {
		return 0, fmt.Errorf("recovery mount: %w", err)
	}
	defer fs2.Unmount()
	diskTime := d.Stats().Sub(pre).BusyTime
	// Roll-forward touches each recovered file without system-call or
	// data-copy overhead: charge a quarter of the per-operation CPU cost
	// per file and nothing per byte (the data blocks are never read).
	cpuTime := cfg.CPU.Cost(int64(nfiles), 0) / 4
	// Sanity: the recovered tree must hold all the files.
	if _, err := fs2.Stat(fmt.Sprintf("/r%06d", nfiles-1)); err != nil {
		return 0, fmt.Errorf("file lost in recovery: %w", err)
	}
	return diskTime + cpuTime, nil
}
