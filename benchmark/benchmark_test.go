package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMetricsMatchSpec keeps the metrics the command emits in step with
// the names, units and directions BENCHMARK.json declares.
func TestMetricsMatchSpec(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var e2e []metricDef
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, m.metricDef)
	}
	for _, c := range []struct {
		name       string
		spec, code []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", sp.PerLayer, perLayer}} {
		if len(c.spec) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command %d", c.name, len(c.spec), len(c.code))
		}
		for i := range c.spec {
			if c.spec[i] != c.code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, command %+v", c.name, i, c.spec[i], c.code[i])
			}
		}
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), command %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

// TestWorkloadsOneOperation runs every workload for one operation (plus
// its warm-up) in the traced mode, which also takes the end-to-end
// metrics, and checks that every declared metric comes out with its
// unit, that nothing failed, and that the spans file parses.
func TestWorkloadsOneOperation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, m := range sp.EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		want[m.Name] = m.Unit
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			spans := filepath.Join(t.TempDir(), "spans.json")
			r := run(w, 1, runOpts{seconds: 0, trace: true, setups: 1, spans: spans})
			if r.Failed != 0 {
				t.Fatalf("%d failed: %v", r.Failed, r.Errors)
			}
			for name, unit := range want {
				v, ok := r.Metrics[name]
				switch {
				case !ok:
					t.Errorf("metric %s not emitted", name)
				case v.Unit != unit:
					t.Errorf("metric %s in %q, want %q", name, v.Unit, unit)
				}
			}
			b, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Spans []span `json:"spans"`
			}
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatalf("spans file does not parse: %v", err)
			}
			if len(doc.Spans) == 0 {
				t.Fatal("spans file holds no spans")
			}
		})
	}
}
