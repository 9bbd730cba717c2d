package main

import (
	"math"
	"sort"
)

// The benchmark's own arithmetic: percentile selection, interval
// unions for span self time, and guarded ratios. Kept free of I/O so
// stats_test.go can pin it exactly.

// minBeyond is how many samples must lie strictly above a reported
// percentile for that percentile to count as measured.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of
// sorted: the smallest sample such that at least q of all samples are
// at or below it. Empty input yields 0.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// beyond counts the samples a nearest-rank q-quantile of n samples
// leaves above it.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		return 0
	}
	return n - rank
}

// supported reports whether n samples carry a q-quantile with at least
// minBeyond samples above it (q = 0.99 needs n >= 1000).
func supported(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// tailQuantile returns the highest of the usual tail quantiles that n
// samples support, or 0 when not even the median has ten beyond it.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.5} {
		if supported(n, q) {
			return q
		}
	}
	return 0
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank median of xs (any order).
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, or 0 when den is 0 (a per-request ratio over no
// requests, or a hit ratio over no lookups).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// interval is a half-open [start, end) span on one monotonic clock.
type interval struct{ start, end int64 }

// unionWithin returns the length of the union of ivs clipped to
// [lo, hi): the part of a parent span that at least one child covers.
// Overlapping children (a hedge racing its primary) count once.
func unionWithin(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var curS, curE int64
	open := false
	for _, iv := range clipped {
		if open && iv.start <= curE {
			if iv.end > curE {
				curE = iv.end
			}
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = iv.start, iv.end, true
	}
	if open {
		total += curE - curS
	}
	return total
}
