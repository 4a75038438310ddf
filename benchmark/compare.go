package main

import (
	"fmt"
	"io"
	"math"
)

// verdict judges one (workload, metric) pair between a base set of runs
// and a new one. change is the relative move of the median, signed so
// that positive is worse. When either side's run-to-run spread exceeds
// the bound, a move of that size cannot be told from noise.
func verdict(base, next []float64, better string, bound float64) (string, float64) {
	mb, mn := median(base), median(next)
	change := (mn - mb) / math.Abs(mb)
	if better == "higher" {
		change = -change
	}
	switch {
	case spread(base) > bound || spread(next) > bound:
		return "unresolved", change
	case change > bound:
		return "worse", change
	case change < -bound:
		return "better", change
	}
	return "same", change
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files, judged against the bounds in BENCHMARK.json, and returns
// 1 if any pair got worse.
func compareFiles(pathA, pathB string, w io.Writer) (int, error) {
	sp, err := loadSpec()
	if err != nil {
		return 0, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return 0, err
	}
	values := func(rs []*result, workload, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
				out = append(out, v.Value)
			}
		}
		return out
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-14s %6s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "bound", "median A", "median B", "change", "IQR A", "IQR B", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-14s %5.0f%% %12s %12s %8s %8s %8s  missing (%d vs %d runs)\n",
					wl.Name, m.Name, 100*m.Bound, "-", "-", "-", "-", "-", len(va), len(vb))
				continue
			}
			v, change := verdict(va, vb, m.Better, m.Bound)
			// setup_s is judged by its median alone: repeated set-ups inside
			// one run already absorb its noise.
			if m.Name == "setup_s" && v == "unresolved" {
				v, change = verdict([]float64{median(va)}, []float64{median(vb)}, m.Better, m.Bound)
			}
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-14s %5.0f%% %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%%  %s\n",
				wl.Name, m.Name, 100*m.Bound, median(va), median(vb), 100*change,
				100*spread(va), 100*spread(vb), v)
		}
	}
	return code, nil
}
