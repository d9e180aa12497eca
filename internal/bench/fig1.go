package bench

import "fmt"

// RunFig1 reproduces Figure 1: the disk I/O required to create two
// single-block files named dir1/file1 and dir2/file2. Unix FFS requires
// ten non-sequential writes (the inodes for the new files are each
// written twice, plus one write each for each file's data, each
// directory's data, and each directory's inode), while the log-structured
// file system performs the operations in a single large sequential write.
func RunFig1(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "fig1",
		Title:   "disk I/O to create two single-block files (dir1/file1, dir2/file2)",
		Columns: []string{"system", "write requests", "blocks written", "seeks", "disk time (ms)"},
	}

	payload := make([]byte, 4096)

	// Log-structured file system.
	lfs, ld, err := cfg.newLFS()
	if err != nil {
		return nil, err
	}
	defer lfs.Unmount()
	if err := lfs.Mkdir("/dir1"); err != nil {
		return nil, err
	}
	if err := lfs.Mkdir("/dir2"); err != nil {
		return nil, err
	}
	if err := lfs.Sync(); err != nil {
		return nil, err
	}
	pre := ld.Stats()
	if err := lfs.WriteFile("/dir1/file1", payload); err != nil {
		return nil, err
	}
	if err := lfs.WriteFile("/dir2/file2", payload); err != nil {
		return nil, err
	}
	if err := lfs.Sync(); err != nil {
		return nil, err
	}
	ls := ld.Stats().Sub(pre)
	t.AddRow("Sprite LFS (this repo)",
		fmt.Sprintf("%d", ls.WriteOps),
		fmt.Sprintf("%d", ls.BlocksWritten),
		fmt.Sprintf("%d", ls.Seeks),
		fmt.Sprintf("%.1f", ls.BusyTime.Seconds()*1000))

	// Unix FFS baseline.
	ufs, ud, err := cfg.newFFS()
	if err != nil {
		return nil, err
	}
	if err := ufs.Mkdir("/dir1"); err != nil {
		return nil, err
	}
	if err := ufs.Mkdir("/dir2"); err != nil {
		return nil, err
	}
	if err := ufs.Sync(); err != nil {
		return nil, err
	}
	pre = ud.Stats()
	if err := ufs.WriteFile("/dir1/file1", payload); err != nil {
		return nil, err
	}
	if err := ufs.WriteFile("/dir2/file2", payload); err != nil {
		return nil, err
	}
	if err := ufs.Sync(); err != nil {
		return nil, err
	}
	us := ud.Stats().Sub(pre)
	t.AddRow("Unix FFS (baseline)",
		fmt.Sprintf("%d", us.WriteOps),
		fmt.Sprintf("%d", us.BlocksWritten),
		fmt.Sprintf("%d", us.Seeks),
		fmt.Sprintf("%.1f", us.BusyTime.Seconds()*1000))

	t.AddNote("paper: FFS issues 10 separate writes, LFS one large sequential write")
	t.AddNote("LFS write request count includes the log flush; extra blocks are the segment summary, packed inodes and directory log")
	return t, nil
}
