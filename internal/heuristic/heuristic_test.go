package heuristic

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// convex completion curve with minimum at k0.
func convex(k0 int) Evaluator {
	return func(k int) (float64, error) {
		d := float64(k - k0)
		return 1000 + d*d, nil
	}
}

func TestGradientFindsConvexMinimum(t *testing.T) {
	for _, k0 := range []int{2, 13, 32, 47, 62} {
		res, err := Gradient(1, 63, 32, 16, convex(k0))
		if err != nil {
			t.Fatal(err)
		}
		if res.SecureCores != k0 {
			t.Fatalf("minimum at %d found %d", k0, res.SecureCores)
		}
	}
}

func TestGradientCheaperThanExhaustive(t *testing.T) {
	res, err := Gradient(1, 63, 32, 16, convex(20))
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes >= 40 {
		t.Fatalf("gradient used %d probes; should beat exhaustive 63", res.Probes)
	}
}

func TestGradientRejectsBadRange(t *testing.T) {
	if _, err := Gradient(10, 5, 7, 1, convex(7)); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := Gradient(1, 63, 0, 1, convex(7)); err == nil {
		t.Fatal("start below range accepted")
	}
}

func TestOptimalExhaustive(t *testing.T) {
	res, err := OptimalParallel(1, 63, 1, 1, convex(41))
	if err != nil {
		t.Fatal(err)
	}
	if res.SecureCores != 41 || res.Probes != 63 {
		t.Fatalf("optimal = %+v", res)
	}
}

func TestOptimalStride(t *testing.T) {
	res, err := OptimalParallel(2, 62, 2, 1, convex(41))
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes != 31 {
		t.Fatalf("probes = %d", res.Probes)
	}
	if res.SecureCores != 40 && res.SecureCores != 42 {
		t.Fatalf("stride-2 optimal = %d, want a neighbor of 41", res.SecureCores)
	}
}

func TestVary(t *testing.T) {
	if Vary(32, 0.25, 64, 1, 63) != 48 {
		t.Fatal("+25% of 64 cores should add 16")
	}
	if Vary(32, -0.25, 64, 1, 63) != 16 {
		t.Fatal("-25% should subtract 16")
	}
	if Vary(2, -0.25, 64, 1, 63) != 1 {
		t.Fatal("clamp at lower bound failed")
	}
	if Vary(60, 0.25, 64, 1, 63) != 63 {
		t.Fatal("clamp at upper bound failed")
	}
}

// Property: Gradient never returns a candidate outside [lo, hi], and its
// result is never worse than the starting point.
func TestGradientBounds(t *testing.T) {
	f := func(k0Raw uint8) bool {
		k0 := 1 + int(k0Raw)%63
		eval := convex(k0)
		res, err := Gradient(1, 63, 32, 16, eval)
		if err != nil {
			return false
		}
		startV, _ := eval(32)
		return res.SecureCores >= 1 && res.SecureCores <= 63 && res.Completion <= startV
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A noisy, multi-modal curve: gradient still returns something sane and
// Optimal beats or ties it.
func TestOptimalAtLeastAsGoodAsGradient(t *testing.T) {
	bumpy := func(k int) (float64, error) {
		return 1000 + 50*math.Sin(float64(k)/3) + math.Abs(float64(k-40))*10, nil
	}
	g, err := Gradient(1, 63, 32, 16, bumpy)
	if err != nil {
		t.Fatal(err)
	}
	o, err := OptimalParallel(1, 63, 1, 1, bumpy)
	if err != nil {
		t.Fatal(err)
	}
	if o.Completion > g.Completion {
		t.Fatalf("optimal %f worse than gradient %f", o.Completion, g.Completion)
	}
}

// OptimalParallel must be indistinguishable from the sequential oracle at
// every worker count: same binding, same completion, same probe count —
// including ties, which break toward the smallest candidate.
func TestOptimalParallelMatchesSequential(t *testing.T) {
	evals := map[string]Evaluator{
		"convex": convex(21),
		"flat":   func(k int) (float64, error) { return 5, nil }, // all tied
		"plateau": func(k int) (float64, error) {
			if k >= 16 && k <= 24 {
				return 1, nil
			}
			return 2, nil
		},
	}
	for name, eval := range evals {
		seq, err := OptimalParallel(1, 63, 2, 1, eval)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 7, 64, 200} {
			par, err := OptimalParallel(1, 63, 2, workers, eval)
			if err != nil {
				t.Fatalf("%s/%d workers: %v", name, workers, err)
			}
			if par != seq {
				t.Fatalf("%s/%d workers: %+v != sequential %+v", name, workers, par, seq)
			}
		}
	}
}

// Concurrent evaluation must report the first failing candidate in range
// order, deterministically, not whichever worker errored first.
func TestOptimalParallelDeterministicError(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	eval := func(k int) (float64, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		if k >= 10 {
			return 0, fmt.Errorf("probe %d failed", k)
		}
		return float64(k), nil
	}
	for _, workers := range []int{1, 8} {
		_, err := OptimalParallel(1, 63, 1, workers, eval)
		if err == nil || err.Error() != "probe 10 failed" {
			t.Fatalf("%d workers: err = %v, want probe 10 failed", workers, err)
		}
	}
	if calls == 0 {
		t.Fatal("evaluator never ran")
	}
}

// The pool must actually run concurrently when asked to — the bounded
// workers are the whole point for 63-candidate oracle searches.
func TestOptimalParallelUsesWorkers(t *testing.T) {
	var mu sync.Mutex
	inflight, peak := 0, 0
	eval := func(k int) (float64, error) {
		mu.Lock()
		inflight++
		if inflight > peak {
			peak = inflight
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inflight--
		mu.Unlock()
		return float64(k), nil
	}
	if _, err := OptimalParallel(1, 32, 1, 8, eval); err != nil {
		t.Fatal(err)
	}
	if peak < 2 {
		t.Fatalf("peak concurrency %d; pool never ran in parallel", peak)
	}
	if peak > 8 {
		t.Fatalf("peak concurrency %d exceeds the 8-worker bound", peak)
	}
}

func TestOptimalParallelBadRange(t *testing.T) {
	if _, err := OptimalParallel(10, 5, 1, 4, convex(7)); err == nil {
		t.Fatal("bad range accepted")
	}
}
