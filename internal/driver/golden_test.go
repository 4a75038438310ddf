package driver

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/core"
)

// -update regenerates the committed engine golden from the current
// simulator output:
//
//	go test ./internal/driver -run TestEngineGolden -update
//
// The golden pins absolute simulator output, so only regenerate it for an
// intended change to the timing model.
var update = flag.Bool("update", false, "rewrite the engine golden from the current simulator output")

// engineGolden is every measurement the golden pins, keyed by case.
type engineGolden struct {
	RunTrace map[string]*Result      `json:"run_trace"`
	Search   *Result                 `json:"search"`
	CoRun    map[string]*CoRunResult `json:"co_run"`
}

// TestEngineGolden pins the interaction-round engine's absolute output:
// trace replay under all four models at two bindings, one
// heuristic-searched IRONHIDE run, and disjoint and overlapping co-runs,
// fully active and with each tenant active alone.
func TestEngineGolden(t *testing.T) {
	cfg := arch.TileGx72()
	trA, trB := captureTwo(t, cfg)
	g := engineGolden{RunTrace: map[string]*Result{}, CoRun: map[string]*CoRunResult{}}

	for _, model := range Models() {
		for _, binding := range []int{16, 48} {
			res, err := RunTrace(cfg, model, trA, Options{Seed: 7, FixedSecureCores: binding})
			if err != nil {
				t.Fatalf("%s/%d: %v", model.Name(), binding, err)
			}
			g.RunTrace[fmt.Sprintf("%s/%d", model.Name(), binding)] = res
		}
	}

	var err error
	if g.Search, err = Run(cfg, core.New(32), tinyApp, Options{Seed: 7}); err != nil {
		t.Fatal(err)
	}

	for name, tenants := range map[string][]CoTenant{
		"disjoint": disjointTenants(trA, trB),
		"overlap":  overlapTenants(trA, trB),
	} {
		for label, active := range map[string][]bool{
			"all":   nil,
			"only0": {true, false},
			"only1": {false, true},
		} {
			res, err := CoRunTraces(cfg, tenants, CoRunOptions{Seed: 7, Active: active})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, label, err)
			}
			g.CoRun[name+"/"+label] = res
		}
	}

	got, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "engine.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("engine output diverged from %s:\n--- got ---\n%s\n--- want ---\n%s\n(run with -update only if the timing model changed on purpose)",
			path, got, want)
	}
}
