package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a timing may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 90, 50}

// quantile is one percentile read from a sample: the percentile
// actually reported, its value, and the sample count behind it.
type quantile struct {
	Pct   float64 `json:"pct"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// percentile reports want (e.g. 99) from the sample when at least ten
// samples lie beyond it; otherwise it falls back down tailLadder to the
// highest percentile that has ten samples beyond it (the median when even
// that is out of reach). The sample is sorted in place.
func percentile(sample []float64, want float64) quantile {
	n := len(sample)
	if n == 0 {
		return quantile{Pct: want}
	}
	sort.Float64s(sample)
	pct := want
	if !hasTail(n, pct) {
		pct = 50
		for _, p := range tailLadder {
			if p <= want && hasTail(n, p) {
				pct = p
				break
			}
		}
	}
	// Nearest rank; the epsilon keeps an exact rank such as 99% of 1000
	// from rounding up past itself.
	rank := int(math.Ceil(pct*float64(n)/100-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	return quantile{Pct: pct, Value: sample[rank], N: n}
}

// hasTail reports whether n samples leave at least ten beyond pct.
func hasTail(n int, pct float64) bool {
	return float64(n)*(100-pct)/100 >= 10-1e-9
}

// median returns the median of vs (mean of the middle pair for an even
// count); vs is sorted in place. Zero for an empty slice.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	sort.Float64s(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// interval is a half-open [start, end) span of monotonic nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children
// cover: child intervals are clipped to the span and their union (not
// their sum, so overlapping children count once) is subtracted.
func selfTime(span interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < span.start {
			c.start = span.start
		}
		if c.end > span.end {
			c.end = span.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := int64(0)
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return span.end - span.start - covered
}
