package main

import (
	"errors"
	"math"
	"testing"
)

func seq(lo, hi int) []float64 {
	var xs []float64
	for i := lo; i <= hi; i++ {
		xs = append(xs, float64(i))
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN, not a number that reads as a measurement")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the
// definition the acceptance spread is computed with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(1, 10), 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 7},
		{[]float64{1, 1, 1, 1, 50}, 1, 25.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = (%g, %g), want (%g, %g)", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpreadIsIQROverMedian(t *testing.T) {
	if got, want := spread(seq(1, 10)), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if got := spread([]float64{4}); got != 0 {
		t.Errorf("spread of one run = %g, want 0", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	p99, err := percentile(seq(1, 1000), 99)
	if err != nil || p99 != 990 {
		t.Errorf("p99 of 1..1000 = %g, %v; want 990", p99, err)
	}
	p90, err := percentile(seq(1, 100), 90)
	if err != nil || p90 != 90 {
		t.Errorf("p90 of 1..100 = %g, %v; want 90", p90, err)
	}
	p50, err := percentile([]float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}, 50)
	if err != nil || p50 != 11 {
		t.Errorf("p50 = %g, %v; want the 11th smallest", p50, err)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{
		{999, 99}, // rank 990 leaves 9 samples beyond
		{99, 90},
		{10, 50},
	} {
		if _, err := percentile(seq(1, c.n), c.p); !errors.Is(err, errFewSamples) {
			t.Errorf("p%g of %d samples: err = %v, want errFewSamples", c.p, c.n, err)
		}
	}
}

func TestMedianOfKindsIgnoresHowOftenEachKindRan(t *testing.T) {
	// Two clusters, one sample more of the slow kind: the pooled median
	// jumps to the slow cluster, the median of kind medians does not.
	byKind := map[int][]float64{0: {10, 10, 10}, 1: {11, 11, 11}, 2: {30, 30, 30, 30}, 3: {31, 31, 31}}
	var pooled []float64
	for _, xs := range byKind {
		pooled = append(pooled, xs...)
	}
	if got := median(pooled); got != 30 {
		t.Fatalf("pooled median = %g, want 30 (the setup of this test)", got)
	}
	if got := medianOfKinds(byKind); got != 20.5 {
		t.Errorf("medianOfKinds = %g, want 20.5", got)
	}
}

func TestTailFallsBackToTheMedian(t *testing.T) {
	if got := tail(seq(1, 12)); got != 6.5 {
		t.Errorf("tail of 12 samples = %g, want the median", got)
	}
	if got := tail(seq(1, 200)); got != 180 {
		t.Errorf("tail of 200 samples = %g, want the p90", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	span := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {50, 60}}, 80},
		{"overlapping concurrent children count once", []interval{{10, 30}, {20, 40}}, 70},
		{"nested child inside another", []interval{{10, 60}, {20, 30}}, 50},
		{"clipped to the span", []interval{{-50, 10}, {90, 150}}, 80},
		{"outside the span", []interval{{200, 300}}, 100},
	} {
		if got := selfTime(span, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		next   []float64
		better string
		want   string
	}{
		{"within bound", []float64{104, 105, 103, 104, 104}, "lower", "same"},
		{"slower past bound", []float64{115, 116, 114, 115, 115}, "lower", "worse"},
		{"faster past bound", []float64{85, 86, 84, 85, 85}, "lower", "better"},
		{"throughput drop", []float64{85, 86, 84, 85, 85}, "higher", "worse"},
		{"noisier than the bound", []float64{60, 100, 140, 80, 120}, "lower", "unresolved"},
	} {
		if got, _ := verdict(steady, c.next, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
