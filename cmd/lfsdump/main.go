// Command lfsdump prints the on-disk structure of a log-structured file
// system image: the superblock, both checkpoint regions, and — per
// segment — the summary chain with every block's kind, owner and age.
// It reads the raw image without mounting, so it works on crashed or
// corrupt images and is the tool of choice for studying what the log
// writer and cleaner actually did.
//
//	lfsdump disk.img                 # superblock + checkpoints + segment map
//	lfsdump -seg 12 disk.img         # one segment's summary chain in full
//	lfsdump -checkpoints disk.img    # checkpoint regions only
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/disk"
	"repro/internal/layout"
)

func main() {
	var (
		segFlag   = flag.Int64("seg", -1, "dump one segment's summary chain in detail")
		cpOnly    = flag.Bool("checkpoints", false, "dump only the checkpoint regions")
		maxBlocks = flag.Int("entries", 16, "max summary entries to print per partial write in -seg mode")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lfsdump [-seg N | -checkpoints] <image>")
		os.Exit(2)
	}
	d, err := disk.Load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	sbBuf, err := d.Peek(0)
	if err != nil {
		fatal(err)
	}
	sb, err := layout.DecodeSuperblock(sbBuf)
	if err != nil {
		fatal(fmt.Errorf("superblock: %w", err))
	}
	fmt.Printf("superblock: %d segments x %d KB, segment area at block %d, %d inodes max\n",
		sb.NumSegments, sb.SegmentBlocks*4, sb.SegmentBase, sb.MaxInodes)

	dumpCheckpoints(d, sb)
	if *cpOnly {
		return
	}
	if *segFlag >= 0 {
		dumpSegment(d, sb, *segFlag, *maxBlocks)
		return
	}
	dumpSegmentMap(d, sb)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lfsdump:", err)
	os.Exit(1)
}

func dumpCheckpoints(d *disk.Disk, sb *layout.Superblock) {
	for i := 0; i < 2; i++ {
		buf := make([]byte, 0, int(sb.CheckpointBlocks)*layout.BlockSize)
		ok := true
		for b := uint32(0); b < sb.CheckpointBlocks; b++ {
			blk, err := d.Peek(sb.CheckpointAddr[i] + int64(b))
			if err != nil {
				ok = false
				break
			}
			buf = append(buf, blk...)
		}
		if !ok {
			fmt.Printf("checkpoint %d: unreadable\n", i)
			continue
		}
		cp, err := layout.DecodeCheckpoint(buf)
		if err != nil {
			fmt.Printf("checkpoint %d: invalid (%v)\n", i, err)
			continue
		}
		fmt.Printf("checkpoint %d: seq %d, time %d, head seg %d offset %d, next seg %d,\n"+
			"              write seq %d, dirlog seq %d, next inum %d, %d imap + %d usage blocks\n",
			i, cp.Seq, cp.Timestamp, cp.HeadSeg, cp.HeadOffset, cp.NextSeg,
			cp.WriteSeq, cp.DirLogSeq, cp.NextInum, len(cp.ImapAddrs), len(cp.UsageAddrs))
	}
}

// walkSummaries calls fn for each summary in the segment's chain and
// returns the offset at which the chain ended and why. It reads with Peek,
// which charges no simulated time.
func walkSummaries(d *disk.Disk, sb *layout.Superblock, seg int64, fn func(off int64, s *layout.Summary)) (int64, layout.WalkEnd) {
	segBlocks := int64(sb.SegmentBlocks)
	s := layout.NewWalkScratch()
	w := layout.WalkSegment(d.Peek, sb.SegmentBase+seg*segBlocks, segBlocks, s)
	for w.Next() {
		fn(w.Off(), &s.Summary)
	}
	end, _ := w.End()
	return w.Off(), end
}

func dumpSegmentMap(d *disk.Disk, sb *layout.Superblock) {
	fmt.Printf("\n%-6s %-8s %-8s %-10s %s\n", "seg", "writes", "blocks", "first-seq", "kinds")
	for seg := int64(0); seg < int64(sb.NumSegments); seg++ {
		var writes, blocks int
		var firstSeq uint64
		kinds := map[layout.BlockKind]int{}
		walkSummaries(d, sb, seg, func(off int64, s *layout.Summary) {
			if writes == 0 {
				firstSeq = s.WriteSeq
			}
			writes++
			blocks += len(s.Entries)
			for _, e := range s.Entries {
				kinds[e.Kind]++
			}
		})
		if writes == 0 {
			continue
		}
		ks := ""
		for _, k := range []layout.BlockKind{layout.KindData, layout.KindIndirect,
			layout.KindInode, layout.KindImap, layout.KindSegUsage, layout.KindDirLog} {
			if kinds[k] > 0 {
				ks += fmt.Sprintf("%s:%d ", k, kinds[k])
			}
		}
		fmt.Printf("%-6d %-8d %-8d %-10d %s\n", seg, writes, blocks, firstSeq, ks)
	}
}

func dumpSegment(d *disk.Disk, sb *layout.Superblock, seg int64, maxEntries int) {
	if seg >= int64(sb.NumSegments) {
		fatal(fmt.Errorf("segment %d out of range (%d segments)", seg, sb.NumSegments))
	}
	fmt.Printf("\nsegment %d summary chain:\n", seg)
	endOff, end := walkSummaries(d, sb, seg, func(off int64, s *layout.Summary) {
		fmt.Printf("  offset %3d: write seq %d, time %d, next seg %d, %d blocks, youngest age %d\n",
			off, s.WriteSeq, s.Timestamp, s.NextSeg, len(s.Entries), s.YoungestAge)
		for i, e := range s.Entries {
			if i >= maxEntries {
				fmt.Printf("    ... %d more entries\n", len(s.Entries)-i)
				break
			}
			switch e.Kind {
			case layout.KindData, layout.KindIndirect:
				fmt.Printf("    +%-3d %-8s inum %-6d v%-3d block %-6d age %d\n",
					i+1, e.Kind, e.Inum, e.Version, e.BlockNo, e.Age)
			default:
				fmt.Printf("    +%-3d %-8s #%d\n", i+1, e.Kind, e.Inum)
			}
		}
	})
	if endOff == 0 {
		fmt.Println("  (no valid summaries; segment is clean or was never written)")
	}
	fmt.Printf("  chain ends at offset %d: %s\n", endOff, end)
}
