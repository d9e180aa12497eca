package main

import (
	"hash/crc32"
	"math/rand"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// Direct timed calls into the layers below core, at the shapes the
// traced pass observed. Each kernel's result is a host time per call.

var kernelSink uint32 // keeps the compiler from deleting a timed call

// kernelBatch is how long one timed batch of kernel calls lasts.
const kernelBatch = 2 * time.Millisecond

// timeKernel returns fn's cost in ns per call: the median of five batches,
// each sized to last about `batch`.
func timeKernel(batch time.Duration, fn func()) float64 {
	iters := 1
	for {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if d := time.Since(t0); d >= batch || iters >= 1<<24 {
			break
		}
		iters *= 4
	}
	batches := make([]float64, 5)
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		batches[b] = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	}
	return median(batches)
}

// calibration is the machine's speed on three fixed kernels, so numbers
// from two machines can be read against each other.
type calibration struct{ crcNs, memcpyNs, timerNs float64 }

func calibrate(batch time.Duration) calibration {
	src, dst := make([]byte, layout.BlockSize), make([]byte, layout.BlockSize)
	rand.New(rand.NewSource(1)).Read(src)
	table := crc32.MakeTable(crc32.Castagnoli)
	base := time.Now()
	return calibration{
		crcNs:    timeKernel(batch, func() { kernelSink += crc32.Checksum(src, table) }),
		memcpyNs: timeKernel(batch, func() { kernelSink += uint32(copy(dst, src)) }),
		timerNs:  timeKernel(batch, func() { kernelSink += uint32(time.Since(base) - time.Since(base)) }),
	}
}

// ---- disk layer ----

// replayDisk replays the recorded (op, addr, blocks) stream against a
// fresh device of the same geometry, timing each Read and Write from
// outside, and stores the cost (less the timer's own) in each event. The
// touched address range is written once beforehand so the timed pass
// copies between allocated blocks, as the measured run did.
func replayDisk(geo disk.Geometry, evs []event, timerNs float64) {
	lo, hi, longest := geo.NumBlocks, int64(0), int64(1)
	for i := range evs {
		if e := &evs[i]; e.kind == evDisk && e.blocks > 0 {
			lo, hi, longest = min(lo, e.addr), max(hi, e.addr+e.blocks), max(longest, e.blocks)
		}
	}
	d, err := disk.New(geo)
	if err != nil || hi <= lo {
		return
	}
	buf := make([]byte, longest*layout.BlockSize)
	for a := lo; a < hi; a += longest {
		// Replay errors cannot happen on a fresh in-range device; a
		// failed request would only leave its cost at zero.
		_ = d.Write(a, buf[:min(longest, hi-a)*layout.BlockSize])
	}
	base := time.Now()
	for i := range evs {
		e := &evs[i]
		if e.kind != evDisk || e.blocks == 0 {
			continue
		}
		b := buf[:e.blocks*layout.BlockSize]
		t0 := time.Since(base)
		if e.write {
			_ = d.Write(e.addr, b)
		} else {
			_ = d.Read(e.addr, b)
		}
		e.cost = max(0, int64(time.Since(base)-t0)-int64(timerNs))
	}
}

func diskLayer(t *traced) []measurement {
	var reads, writes, rblocks, wblocks, seq, cost float64
	var seek, rot, xfer time.Duration
	for i := range t.evs {
		e := &t.evs[i]
		if e.kind != evDisk {
			continue
		}
		if e.write {
			writes++
			wblocks += float64(e.blocks)
		} else {
			reads++
			rblocks += float64(e.blocks)
		}
		if e.seq {
			seq++
		}
		seek, rot, xfer = seek+e.seek, rot+e.rot, xfer+e.xfer
		cost += float64(e.cost)
	}
	busy := float64(seek + rot + xfer)
	return []measurement{
		{"disk.read_reqs", reads, "count"},
		{"disk.write_reqs", writes, "count"},
		{"disk.blocks_per_read", ratio(rblocks, reads), "count"},
		{"disk.blocks_per_write", ratio(wblocks, writes), "count"},
		{"disk.seq_share", ratio(seq, reads+writes), "ratio"},
		{"disk.sim_seek_share", ratio(float64(seek), busy), "ratio"},
		{"disk.sim_rot_share", ratio(float64(rot), busy), "ratio"},
		{"disk.sim_xfer_share", ratio(float64(xfer), busy), "ratio"},
		{"disk.host_ns_per_req", ratio(cost, reads+writes), "ns"},
		{"disk.host_ns_per_block", ratio(cost, rblocks+wblocks), "ns"},
		{"disk.host_wall_share", ratio(cost, float64(t.pass.wall.Nanoseconds())), "ratio"},
	}
}

// ---- layout layer ----

func layoutLayer(t *traced, sb layout.Superblock, dirEntries int, batch time.Duration) []measurement {
	// Observed shapes: entries per summary from the log writes, inodes per
	// inode block from how many file-changing ops share one.
	var changes float64
	flushes, logBlocks := t.logWrites()
	for _, ops := range t.ops {
		for _, op := range ops {
			if op.kind == opCreate || op.kind == opWrite || op.kind == opRemove {
				changes++
			}
		}
	}
	fs := t.pass.fs
	entries := clamp(int(ratio(logBlocks, flushes))-1, 1, layout.MaxSummaryEntries)
	inodeBlocks := float64(fs.LogBytesByKind[layout.KindInode]) / layout.BlockSize
	inodes := clamp(int(ratio(changes, inodeBlocks)), 1, layout.InodesPerBlock)
	dirEntries = max(dirEntries, 1)

	rng := rand.New(rand.NewSource(1))
	block := make([]byte, layout.BlockSize)
	rng.Read(block)

	sum := &layout.Summary{WriteSeq: 7, NextSeg: 3, Entries: make([]layout.SummaryEntry, entries)}
	for i := range sum.Entries {
		sum.Entries[i] = layout.SummaryEntry{Kind: layout.KindData, Inum: uint32(i + 2), Version: 1, BlockNo: uint32(i), Age: uint64(i), Sum: rng.Uint32()}
	}
	sumBuf, _ := sum.Encode() // entries ≤ MaxSummaryEntries, so this and the encodes below cannot fail
	var sumScratch layout.Summary

	inos := make([]*layout.Inode, inodes)
	for i := range inos {
		inos[i] = layout.NewInode(uint32(i+2), layout.FileTypeRegular)
		inos[i].Size = 4096
		inos[i].Direct[0] = int64(1000 + i)
	}
	inoBuf, _ := layout.EncodeInodeBlock(inos)

	dir := make([]layout.DirEntry, dirEntries)
	for i := range dir {
		dir[i] = layout.DirEntry{Inum: uint32(i + 2), Name: randName(rng, i)}
	}
	dirBuf, _ := layout.EncodeDirectory(dir)

	dirops := make([]*layout.DirOp, 32)
	for i := range dirops {
		dirops[i] = &layout.DirOp{Seq: uint64(i), Op: layout.DirOpCreate, Dir: 2, Name: dir[i%len(dir)].Name, Inum: uint32(i + 3), Version: 1, NewNlink: 1}
	}

	nImap := (int(sb.MaxInodes) + layout.ImapEntriesPerBlock - 1) / layout.ImapEntriesPerBlock
	nUsage := (int(sb.NumSegments) + layout.SegUsagePerBlock - 1) / layout.SegUsagePerBlock
	cp := &layout.Checkpoint{Seq: 9, ImapAddrs: make([]int64, nImap), UsageAddrs: make([]int64, nUsage)}

	crcNs := timeKernel(batch, func() { kernelSink += layout.Checksum(block) })
	// Every logged block is checksummed into its summary entry and every
	// block read back is verified against it.
	crcBlocks := logBlocks + float64(t.snap.Counter(obs.CtrVerifiedBlocks))
	return []measurement{
		{"layout.checksum_ns_per_block", crcNs, "ns"},
		{"layout.checksum_blocks", crcBlocks, "count"},
		{"layout.checksum_wall_share_est", ratio(crcBlocks*crcNs, float64(t.pass.wall.Nanoseconds())), "ratio"},
		{"layout.summary_encode_ns", timeKernel(batch, func() { b, _ := sum.Encode(); kernelSink += uint32(len(b)) }), "ns"},
		{"layout.summary_decode_ns", timeKernel(batch, func() { _ = layout.DecodeSummaryInto(sumBuf, &sumScratch) }), "ns"},
		{"layout.inode_block_encode_ns", timeKernel(batch, func() { b, _ := layout.EncodeInodeBlock(inos); kernelSink += uint32(len(b)) }), "ns"},
		{"layout.inode_block_decode_ns", timeKernel(batch, func() { v, _ := layout.DecodeInodeBlock(inoBuf); kernelSink += uint32(len(v)) }), "ns"},
		{"layout.dir_encode_ns", timeKernel(batch, func() { b, _ := layout.EncodeDirectory(dir); kernelSink += uint32(len(b)) }), "ns"},
		{"layout.dir_decode_ns", timeKernel(batch, func() { v, _ := layout.DecodeDirectory(dirBuf); kernelSink += uint32(len(v)) }), "ns"},
		{"layout.dirlog_encode_ns", timeKernel(batch, func() { b, _, _ := layout.EncodeDirOpLog(dirops); kernelSink += uint32(len(b)) }), "ns"},
		{"layout.checkpoint_encode_ns", timeKernel(batch, func() { b, _ := cp.Encode(int(sb.CheckpointBlocks)); kernelSink += uint32(len(b)) }), "ns"},
	}
}

func clamp(v, lo, hi int) int { return max(lo, min(v, hi)) }

// ---- bufpool layer ----

// The file system's own pools are not exported, so these time fresh
// pools of the same shapes; pool effectiveness shows in allocs_per_op.
func bufpoolLayer(batch time.Duration) []measurement {
	const segBlocks = 128
	blocks := bufpool.New(layout.BlockSize, 3*segBlocks)
	runs := bufpool.NewRun(layout.BlockSize, segBlocks, 4)
	blocks.Put(blocks.Get())
	runs.Put(runs.Get(segBlocks))

	// Two goroutines hammering one pool; the cost is wall time per
	// Get/Put pair of either.
	perClient := int(batch / (20 * time.Nanosecond))
	rounds := make([]float64, 5)
	for r := range rounds {
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					blocks.Put(blocks.Get())
				}
			}()
		}
		wg.Wait()
		rounds[r] = float64(time.Since(t0).Nanoseconds()) / float64(perClient)
	}
	return []measurement{
		{"bufpool.block_getput_ns", timeKernel(batch, func() { blocks.Put(blocks.Get()) }), "ns"},
		{"bufpool.run_getput_ns", timeKernel(batch, func() { runs.Put(runs.Get(segBlocks)) }), "ns"},
		{"bufpool.contended_getput_ns", median(rounds), "ns"},
	}
}
