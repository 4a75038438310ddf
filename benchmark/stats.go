package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail read off fewer samples is one unlucky request, not a percentile.
const minBeyond = 10

// errFewSamples marks a percentile the sample count cannot support.
var errFewSamples = errors.New("too few samples beyond the percentile")

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (the mean of the two middle values for
// an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOfKinds is the median over input kinds of each kind's median.
// A window holds every kind equally often, and each kind's latencies
// cluster; the median of all samples pooled then falls on the boundary
// between two clusters and flips between them with one sample more or
// less, while this moves only as fast as the kinds' own medians.
func medianOfKinds(byKind map[int][]float64) float64 {
	meds := make([]float64, 0, len(byKind))
	for _, xs := range byKind {
		meds = append(meds, median(xs))
	}
	return median(meds)
}

// quartiles returns the first and third quartiles by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), the definition the
// benchmark's acceptance spread is stated in. One sample is its own
// quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
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
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise a bound must exceed before a change can be judged.
func spread(xs []float64) float64 {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100): the
// smallest sample with at least p% of the samples at or below it. It
// refuses when fewer than minBeyond samples lie above that rank, so a p99
// needs at least 1000 samples.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples: %w (%d, want %d)", p, n, errFewSamples, n-rank, minBeyond)
	}
	return sorted(xs)[rank-1], nil
}

// tail is the workload's tail latency: the p90 of all samples when the
// window holds enough for it. A window of tens of samples (a batch
// workload whose operations take seconds) supports no tail percentile,
// and its tail is its median.
func tail(xs []float64) float64 {
	if v, err := percentile(xs, 90); err == nil {
		return v
	}
	return median(xs)
}

// interval is a half-open [start, end) stretch of time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the union of its children's
// intervals, each clipped to the span. Concurrent children that overlap
// are counted once, so a parent fanning work out to two workers is not
// charged negative time.
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
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].start < clipped[b].start })
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
