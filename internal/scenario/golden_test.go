package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// -update regenerates the committed timeline goldens:
//
//	go test ./internal/scenario -run 'Golden$' -update
//
// The goldens pin absolute simulator output, so only regenerate them for
// an intended change to the timing model, to resize accounting or to
// co-tenant scoring.
var update = flag.Bool("update", false, "rewrite the scenario goldens from the current engine output")

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
	checkGolden(t, "cotenancy.golden.json", golden)
}

// TestInsecureScenarioGolden pins the insecure baseline's time-shared
// timelines under every reconfiguration policy: the baseline moves its
// cluster boundary for free, so the golden fixes which phases move cores
// and which resizes a policy defers, with no purge charged anywhere.
func TestInsecureScenarioGolden(t *testing.T) {
	golden := map[string]*Report{}
	var moved, deferred int
	for seed := int64(1); seed <= 3; seed++ {
		for _, policy := range []string{"always", "hysteresis", "costaware"} {
			spec := Spec{Seed: seed, Scale: 0.05, Events: 8, Model: "Insecure", ReconfigPolicy: policy}
			rep, err := Run(testCfg(), spec, Options{TraceFor: sharedTraces})
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, policy, err)
			}
			if rep.TotalPurgeCycles != 0 || rep.Denied != 0 {
				t.Fatalf("seed %d, %s: insecure baseline charged %d purge cycles and denied %d resizes", seed, policy, rep.TotalPurgeCycles, rep.Denied)
			}
			for _, ph := range rep.Phases {
				if ph.CoresMoved > 0 {
					moved++
				}
			}
			deferred += rep.Deferred
			golden[fmt.Sprintf("seed%d/%s", seed, policy)] = rep
		}
	}
	if moved == 0 || deferred == 0 {
		t.Fatalf("timelines lack coverage: %d phases moved cores, %d resizes deferred", moved, deferred)
	}
	checkGolden(t, "insecure.golden.json", golden)
}

// checkGolden diffs v's indented JSON against testdata/name, rewriting the
// file first under -update.
func checkGolden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
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
		t.Fatalf("timeline diverged from %s:\n--- got ---\n%s\n--- want ---\n%s\n(run with -update only if the timing model changed on purpose)",
			path, got, want)
	}
}
