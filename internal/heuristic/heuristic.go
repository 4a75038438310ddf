// Package heuristic implements IRONHIDE's core re-allocation predictor
// (paper Section III-B4): the gradient-based search the secure kernel runs
// once per interactive application invocation to pick the load-balanced
// number of cores per cluster, plus the exhaustive Optimal search and the
// fixed ±x% decision variations Figure 8 evaluates it against.
package heuristic

import (
	"fmt"

	"ironhide/internal/runner"
)

// Evaluator estimates the application's completion time (in cycles) for a
// candidate secure-cluster size. The driver implements it with short
// profiling runs on fresh machines.
type Evaluator func(secureCores int) (float64, error)

// Result is a chosen core binding.
type Result struct {
	SecureCores int
	Completion  float64
	Probes      int // evaluator invocations spent
}

// Gradient runs the gradient-based heuristic: starting from start
// (the paper's 32/32 initial configuration) with the given step, it probes
// both directions, walks downhill while completion improves, and halves
// the step until it reaches one. Probes are memoized so repeated
// candidates are free.
func Gradient(lo, hi, start, step int, eval Evaluator) (Result, error) {
	if lo > hi || start < lo || start > hi {
		return Result{}, fmt.Errorf("heuristic: bad range [%d,%d] start %d", lo, hi, start)
	}
	if step <= 0 {
		step = (hi - lo) / 4
		if step <= 0 {
			step = 1
		}
	}
	memo := map[int]float64{}
	probes := 0
	probe := func(k int) (float64, error) {
		if v, ok := memo[k]; ok {
			return v, nil
		}
		v, err := eval(k)
		if err != nil {
			return 0, err
		}
		memo[k] = v
		probes++
		return v, nil
	}

	best := start
	bestV, err := probe(best)
	if err != nil {
		return Result{}, err
	}
	for step >= 1 {
		improved := true
		for improved {
			improved = false
			for _, cand := range []int{best - step, best + step} {
				if cand < lo || cand > hi {
					continue
				}
				v, err := probe(cand)
				if err != nil {
					return Result{}, err
				}
				if v < bestV {
					best, bestV = cand, v
					improved = true
				}
			}
		}
		step /= 2
	}
	return Result{SecureCores: best, Completion: bestV, Probes: probes}, nil
}

// OptimalParallel exhaustively evaluates every candidate in [lo, hi] with
// the given stride and returns the best — the paper's overhead-free
// oracle. Candidates are independent fresh-machine probes, so they fan
// out over runner.Map on up to `workers` goroutines. The outcome is
// deterministic at any worker count: ties break toward the smallest
// candidate, Probes counts every candidate, and the reported error is the
// first failing candidate in range order. Every candidate runs even after
// one fails. The evaluator must be safe for concurrent calls when
// workers > 1.
func OptimalParallel(lo, hi, stride, workers int, eval Evaluator) (Result, error) {
	if lo > hi {
		return Result{}, fmt.Errorf("heuristic: bad range [%d,%d]", lo, hi)
	}
	if stride <= 0 {
		stride = 1
	}
	var cands []int
	for k := lo; k <= hi; k += stride {
		cands = append(cands, k)
	}
	vals, err := runner.Map(workers, cands, func(_, k int) (float64, error) { return eval(k) })
	if err != nil {
		return Result{}, err
	}
	res := Result{SecureCores: -1, Probes: len(cands)}
	for i, k := range cands {
		if res.SecureCores < 0 || vals[i] < res.Completion {
			res.SecureCores = k
			res.Completion = vals[i]
		}
	}
	return res, nil
}

// Vary applies Figure 8's fixed decision variations: frac is the signed
// fraction of the machine's total cores added to (+) or taken from (-)
// the Optimal secure allocation, clamped to [lo, hi]. (The paper varies x
// between ±5% and ±25%.)
func Vary(optimal int, frac float64, totalCores, lo, hi int) int {
	delta := int(frac * float64(totalCores))
	k := optimal + delta
	if k < lo {
		k = lo
	}
	if k > hi {
		k = hi
	}
	return k
}
