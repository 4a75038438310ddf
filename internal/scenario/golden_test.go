package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -update regenerates the committed co-tenant timeline golden:
//
//	go test ./internal/scenario -run TestCoTenantScenarioGolden -update
//
// The golden pins absolute simulator output, so only regenerate it for an
// intended change to the timing model or to co-tenant scoring.
var update = flag.Bool("update", false, "rewrite the co-tenant scenario golden from the current engine output")

// TestCoTenantScenarioGolden pins a co-tenant timeline's report under every
// packing policy. Seed 1 under hysteresis plays one-tenant phases,
// multi-tenant phases and a forced resize, so the golden covers the
// single-tenant co-run, the partitioned co-run and the resize it forces.
func TestCoTenantScenarioGolden(t *testing.T) {
	golden := map[string]*Report{}
	for _, policy := range []string{"best-fit", "interference-aware", "fairness-floor"} {
		spec := Spec{Seed: 1, Scale: 0.05, Events: 8, CoTenancy: true, Policy: policy, ReconfigPolicy: "hysteresis"}
		rep, err := Run(testCfg(), spec, Options{TraceFor: sharedTraces})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		var solo, shared, forced bool
		for _, ph := range rep.Phases {
			solo = solo || len(ph.Runs) == 1
			shared = shared || len(ph.Runs) > 1
			forced = forced || ph.ForcedResize
		}
		if !solo || !shared || !forced {
			t.Fatalf("%s: timeline lacks coverage: one-tenant phase %v, multi-tenant phase %v, forced resize %v", policy, solo, shared, forced)
		}
		golden[policy] = rep
	}

	got, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "cotenancy.golden.json")
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
		t.Fatalf("co-tenant timeline diverged from %s:\n--- got ---\n%s\n--- want ---\n%s\n(run with -update only if the timing model changed on purpose)",
			path, got, want)
	}
}
