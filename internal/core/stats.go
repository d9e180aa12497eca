package core

import "repro/internal/layout"

// Stats accumulates file system activity counters. Byte counts are in
// file system blocks multiplied by the block size; they feed the write
// cost and log-bandwidth breakdowns reported in the paper (Figure 3,
// Table 2, Table 4).
type Stats struct {
	// NewDataBytes counts bytes of new information written to the log on
	// behalf of applications and metadata (everything except cleaning).
	NewDataBytes int64
	// CleanerReadBytes counts bytes read from segments by the cleaner.
	CleanerReadBytes int64
	// CleanerWriteBytes counts live bytes rewritten by the cleaner.
	CleanerWriteBytes int64
	// SummaryBytes counts segment summary blocks written.
	SummaryBytes int64

	// LogBytesByKind breaks the log traffic down by block type (Table 4).
	// Indexed by layout.BlockKind.
	LogBytesByKind [8]int64

	// SegmentsCleaned counts segments processed by the cleaner.
	SegmentsCleaned int64
	// SegmentsCleanedEmpty counts cleaned segments that had no live data
	// (Table 2 "Empty" column) and therefore needed no read.
	SegmentsCleanedEmpty int64
	// CleanedUtilSum accumulates the utilization u of each non-empty
	// cleaned segment, so CleanedUtilSum/(SegmentsCleaned-
	// SegmentsCleanedEmpty) is Table 2's "u Avg" column.
	CleanedUtilSum float64
	// CleaningPasses counts invocations of the cleaner.
	CleaningPasses int64

	// Checkpoints counts checkpoint operations.
	Checkpoints int64
	// PartialWrites counts partial-segment log writes.
	PartialWrites int64

	// FilesCreated, FilesDeleted count namespace operations.
	FilesCreated int64
	FilesDeleted int64

	// RollForwardWrites counts log writes issued during recovery.
	RollForwardWrites int64

	// WriterStalls counts mutating operations that waited for another
	// goroutine to free segments: always 0, because the writer whose
	// epilogue finds the clean pool low cleans itself. Benchmarks report it.
	WriterStalls int64

	// AdmitOps counts mutating operations admitted through the write
	// admission gate; AdmitWaits counts the subset that blocked at the
	// gate waiting for the staged backlog to drain.
	AdmitOps   int64
	AdmitWaits int64
	// GroupCommits counts log flushes executed by the group-commit
	// goroutine; GroupCommitSyncs counts the Sync callers those batches
	// served (GroupCommitSyncs/GroupCommits is the amortization factor).
	// GroupCommitMaxSyncs is the largest single batch.
	GroupCommits        int64
	GroupCommitSyncs    int64
	GroupCommitMaxSyncs int64

	// NVAbsorbedSyncs counts Sync calls satisfied by the NVRAM commit
	// point alone (Options.NVRAM): the caller returned without waiting
	// for any disk write, and no flush was started for it.
	// NVBackpressureFlushes counts the inline flushes forced by a full
	// NVRAM — an attached NVRAM's only synchronous disk wait.
	NVAbsorbedSyncs       int64
	NVBackpressureFlushes int64

	// ReadAheadBlocks counts blocks a read fetched past what it was asked
	// for, because it continued a stream (readahead.go): as far as the
	// log's run goes in the request's segment. ReadAheadHits counts the
	// blocks the window served; each is served at most once, and a block
	// fetched ahead that is never served was dropped or passed.
	ReadAheadBlocks int64
	ReadAheadHits   int64
}

// WriteCost returns the paper's write-cost metric: total bytes moved to
// and from the disk per byte of new data (Section 3.4). A write cost of
// 1.0 means no cleaning overhead at all. Summary blocks are included in
// the numerator as log overhead.
func (s Stats) WriteCost() float64 {
	if s.NewDataBytes == 0 {
		return 1.0
	}
	moved := s.NewDataBytes + s.SummaryBytes + s.CleanerReadBytes + s.CleanerWriteBytes
	return float64(moved) / float64(s.NewDataBytes)
}

// AvgCleanedUtil returns the average utilization of the non-empty
// segments that were cleaned (Table 2's "u Avg").
func (s Stats) AvgCleanedUtil() float64 {
	n := s.SegmentsCleaned - s.SegmentsCleanedEmpty
	if n == 0 {
		return 0
	}
	return s.CleanedUtilSum / float64(n)
}

// EmptyCleanedFraction returns the fraction of cleaned segments that were
// entirely empty (Table 2's "Empty" column).
func (s Stats) EmptyCleanedFraction() float64 {
	if s.SegmentsCleaned == 0 {
		return 0
	}
	return float64(s.SegmentsCleanedEmpty) / float64(s.SegmentsCleaned)
}

// LogBytesTotal returns the total bytes appended to the log, including
// summary blocks and cleaner rewrites.
func (s Stats) LogBytesTotal() int64 {
	var t int64
	for _, b := range s.LogBytesByKind {
		t += b
	}
	return t + s.SummaryBytes
}

func (s *Stats) addKind(kind layout.BlockKind, bytes int64) {
	if int(kind) < len(s.LogBytesByKind) {
		s.LogBytesByKind[kind] += bytes
	}
}
