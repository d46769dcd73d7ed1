package main

import (
	"math"
	"sort"
)

// percentile is the exact order statistic at q (nearest rank): the
// smallest sample with at least q of the samples at or below it. The
// input must be sorted ascending. An empty input yields NaN so a
// missing measurement can never read as a fast one.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// sortedCopy returns the samples sorted ascending, leaving the input
// in arrival order.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// supports reports whether n samples leave at least ten beyond the
// q-th percentile — the rule for which tail percentile a sample can
// carry.
func supports(n int, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9 // 100*(1-0.9) is 9.999999999999998 in floating point
}

// highestSupported is the largest candidate tail percentile that n
// samples support, or 0.5 when none does.
func highestSupported(n int) float64 {
	best := 0.5
	for _, q := range []float64{0.9, 0.95, 0.99, 0.999} {
		if supports(n, q) {
			best = q
		}
	}
	return best
}

// quartiles are the cut points of Python's statistics.quantiles(xs,
// n=4) (the exclusive method), so a spread computed here equals the
// one the acceptance check computes. Fewer than two samples yield the
// sample itself three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it that its child
// spans cover: children are clipped to the parent and overlapping
// children (parallel shard calls) are counted once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered, hi int64
	hi = parent.start
	for _, c := range clipped {
		if c.start > hi {
			hi = c.start
		}
		if c.end > hi {
			covered += c.end - hi
			hi = c.end
		}
	}
	return (parent.end - parent.start) - covered
}
