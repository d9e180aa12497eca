package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles above the median a tail metric may
// use, highest first. p99 is deliberately absent: on largefile and hotcold about one
// op in 64–100 flushes the log, so p99 sits on the boundary between the
// fast-path and the flush populations and swings between identical runs.
var tailCandidates = []float64{99.9, 90}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported (choosing-metrics guide, section 1).
const minBeyond = 10

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond of n samples beyond it, falling back to the median.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		// In whole samples per thousand: 10000 × 0.1 % must count as 10.
		if n*int(1000-10*p+0.5) >= minBeyond*1000 {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile of an ascending
// slice (0 for an empty one).
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), so spreads
// computed here match the ones the benchmark contract is checked with.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(3)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
