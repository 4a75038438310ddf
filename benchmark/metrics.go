package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// metricDef names one reported metric. BENCHMARK.json repeats these with
// their bounds; TestMetricsMatchSpec keeps the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better,omitempty"`
}

// endToEnd are the metrics a user of the system sees. What one "op" is
// depends on the workload: a whole paper matrix, one HTTP request, or one
// streamed scenario phase (latency) and timeline (throughput).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
}

// perLayer are the single-layer metrics of the traced run. Times are
// median self times (span minus its children) unless noted.
var perLayer = []metricDef{
	{"driver.capture_ms", "ms", "lower"},
	{"driver.search_ms", "ms", "lower"},
	{"driver.search_probes", "count", "lower"},
	{"driver.replay_spatial_ms", "ms", "lower"},
	{"driver.replay_temporal_ms", "ms", "lower"},
	{"sim.host_ns_per_access", "ns", "lower"},
	{"sim.access_l1hit_ns", "ns", "lower"},
	{"sim.access_l2miss_ns", "ns", "lower"},
	{"enclave.purge_ms", "ms", "lower"},
	{"core.reconfigure_ms", "ms", "lower"},
	{"trace.lower_ms", "ms", "lower"},
	{"trace.marshal_ms", "ms", "lower"},
	{"trace.unmarshal_ms", "ms", "lower"},
	{"trace.bytes", "bytes", "lower"},
	{"store.put_ms", "ms", "lower"},
	{"store.get_ms", "ms", "lower"},
	{"runner.seq_matrix_ms", "ms", "lower"},
	{"runner.speedup", "ratio", "higher"},
	{"service.encode_ms", "ms", "lower"},
	{"service.overhead_ms", "ms", "lower"},
	{"service.cache_hit_frac", "ratio", "higher"},
	{"service.live_captures", "count", "lower"},
	{"fleet.peer_fetch_ms", "ms", "lower"},
	{"fleet.route_overhead_ms", "ms", "lower"},
	{"scenario.trace_ms", "ms", "lower"},
	{"scenario.arrive_search_ms", "ms", "lower"},
	{"scenario.resize_ms", "ms", "lower"},
	{"scenario.replay_ms", "ms", "lower"},
	{"scenario.corun_ms", "ms", "lower"},
	{"scenario.stream_overhead_ms", "ms", "lower"},
	{"scenario.purge_cycles", "count", "lower"},
	{"scenario.reconfigs", "count", "lower"},
	{"scenario.denied", "count", "lower"},
	{"scenario.deferred", "count", "lower"},
	{"residual_ms", "ms", "lower"},
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind the value.
	N int `json:"n"`
}

// result is one workload run: the record -out appends and -compare reads.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Errors    []string         `json:"errors,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	// Notes are human-readable lines printed beside the metrics (the
	// simulated headline geomeans, the counters behind a gate).
	Notes []string `json:"notes,omitempty"`
}

// maxErrors bounds the error texts one run keeps.
const maxErrors = 5

func (r *result) fail(err error) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, err.Error())
	}
}

// set records metric name; a measurement with no samples behind it is a
// failure of the run, not a zero.
func (r *result) set(name string, v float64, n int) {
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if d.Name != name {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail(fmt.Errorf("metric %s: no samples", name))
			v = 0
		}
		r.Metrics[name] = value{Value: v, Unit: d.Unit, N: n}
		return
	}
	panic("benchmark: undefined metric " + name)
}

// defsFor returns the metrics a run of the given mode reports.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// summary is the one-line JSON object that ends standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]summaryItem `json:"metrics"`
}

type summaryItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spec is the part of BENCHMARK.json the benchmark itself reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or the nearest
// parent that has one (the command runs from the repository root; its
// tests run from benchmark/).
func loadSpec() (*spec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var s spec
			if err := json.Unmarshal(b, &s); err != nil {
				return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
			}
			return &s, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("BENCHMARK.json not found in the working directory or its parents")
		}
		dir = parent
	}
}
