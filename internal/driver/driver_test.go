package driver

import (
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/core"
	"ironhide/internal/enclave"
	"ironhide/internal/graphalg"
	"ironhide/internal/graphgen"
	"ironhide/internal/workload"
)

// tinyApp builds a small, fast interactive application for driver tests.
func tinyApp() *workload.App {
	g := graphgen.NewRoadNetwork(24, 24, 60, 3)
	gen := graphgen.NewGenerator(g, 24, 7)
	return &workload.App{
		Name: "tiny", Class: workload.User,
		Insecure: gen,
		Secure:   graphalg.NewSSSP(gen, 0, 2),
		Rounds:   12, Warmup: 3, ProfileRounds: 4,
		PayloadBytes: 512, ReplyBytes: 128,
	}
}

// Every model shares the machine one way: spatial models place and move
// a cluster boundary, the others time-share every core. Temporal() must
// agree with that split while anything still reads it.
func TestModelsAreTemporalOrSpatial(t *testing.T) {
	spatial := 0
	for _, m := range Models() {
		_, ok := m.(enclave.Spatial)
		if ok == m.Temporal() {
			t.Fatalf("%s: Temporal() = %v, enclave.Spatial = %v", m.Name(), m.Temporal(), ok)
		}
		if ok {
			spatial++
		}
	}
	if spatial != 2 {
		t.Fatalf("%d spatial models, want the insecure baseline and IRONHIDE", spatial)
	}
}

func TestRunAllModels(t *testing.T) {
	cfg := arch.TileGx72()
	for _, m := range Models() {
		res, err := Run(cfg, m, tinyApp, Options{FixedSecureCores: 16})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if res.CompletionCycles <= 0 {
			t.Fatalf("%s: empty completion", m.Name())
		}
		if res.Interactions != int64(2*res.Rounds) {
			t.Fatalf("%s: %d interactions for %d rounds", m.Name(), res.Interactions, res.Rounds)
		}
		if res.RouteViolations != 0 {
			t.Fatalf("%s: %d route violations", m.Name(), res.RouteViolations)
		}
		if res.L1Accesses == 0 || res.L2Accesses == 0 {
			t.Fatalf("%s: no cache traffic recorded", m.Name())
		}
	}
}

// The central result shapes: MI6 pays purges on every interaction, SGX
// pays the crossing constant, IRONHIDE pays neither per interaction.
func TestOverheadAttribution(t *testing.T) {
	cfg := arch.TileGx72()

	sgx, err := Run(cfg, enclave.SGXLike{}, tinyApp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sgx.PurgeCycles != 0 || sgx.EntryExitCycles == 0 {
		t.Fatalf("SGX breakdown wrong: %+v", sgx)
	}
	wantEE := int64(sgx.Interactions) * (cfg.SGXEntryExitLat + cfg.PipelineFlushLat)
	if sgx.EntryExitCycles != wantEE {
		t.Fatalf("SGX entry/exit = %d, want %d", sgx.EntryExitCycles, wantEE)
	}

	mi6, err := Run(cfg, enclave.MulticoreMI6{}, tinyApp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mi6.EntryExitCycles != 0 || mi6.PurgeCycles == 0 {
		t.Fatalf("MI6 breakdown wrong: %+v", mi6)
	}

	ih, err := Run(cfg, core.New(32), tinyApp, Options{FixedSecureCores: 16})
	if err != nil {
		t.Fatal(err)
	}
	if ih.PurgeCycles != 0 || ih.EntryExitCycles != 0 {
		t.Fatalf("IRONHIDE paid per-interaction costs: %+v", ih)
	}
	if ih.ReconfigCycles == 0 {
		t.Fatal("IRONHIDE reconfiguration to 16 cores cost nothing")
	}
	if ih.SecureCores != 16 {
		t.Fatalf("binding = %d, want 16", ih.SecureCores)
	}
}

// Purging must dominate MI6's completion relative to IRONHIDE for the
// same app — the paper's central claim.
func TestIronhideBeatsMI6(t *testing.T) {
	cfg := arch.TileGx72()
	mi6, err := Run(cfg, enclave.MulticoreMI6{}, tinyApp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Run(cfg, core.New(32), tinyApp, Options{FixedSecureCores: 16})
	if err != nil {
		t.Fatal(err)
	}
	if ih.CompletionCycles >= mi6.CompletionCycles {
		t.Fatalf("IRONHIDE (%d) not faster than MI6 (%d)", ih.CompletionCycles, mi6.CompletionCycles)
	}
	if ih.PurgeCycles*100 > mi6.PurgeCycles {
		t.Fatalf("IRONHIDE purge %d not orders below MI6 %d", ih.PurgeCycles, mi6.PurgeCycles)
	}
}

// A pinned binding that leaves the insecure cluster without cores is an
// error, not a panic on an empty gang.
func TestPinnedBindingOutOfRange(t *testing.T) {
	cfg := arch.TileGx72()
	tr, err := CaptureTrace(cfg, tinyApp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []enclave.Model{enclave.Insecure{}, core.New(32)} {
		for _, binding := range []int{cfg.Cores(), cfg.Cores() + 1} {
			opts := Options{Seed: 7, FixedSecureCores: binding}
			if _, err := RunTrace(cfg, model, tr, opts); err == nil {
				t.Fatalf("%s replay at %d secure cores: accepted", model.Name(), binding)
			}
			if _, err := Run(cfg, model, tinyApp, opts); err == nil {
				t.Fatalf("%s live run at %d secure cores: accepted", model.Name(), binding)
			}
		}
	}
}

func TestHeuristicSearchRuns(t *testing.T) {
	cfg := arch.TileGx72()
	res, err := Run(cfg, core.New(32), tinyApp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SearchProbes == 0 {
		t.Fatal("no profiling probes recorded")
	}
	if res.SecureCores < 1 || res.SecureCores > 63 {
		t.Fatalf("binding %d out of range", res.SecureCores)
	}
}

func TestOptimalWaivesOverheads(t *testing.T) {
	cfg := arch.TileGx72()
	res, err := Run(cfg, core.New(32), tinyApp, Options{Optimal: true, OptimalStride: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReconfigCycles != 0 {
		t.Fatal("Optimal must not pay reconfiguration overheads")
	}
}

func TestScaledRuns(t *testing.T) {
	cfg := arch.TileGx72()
	res, err := Run(cfg, enclave.Insecure{}, tinyApp, Options{Scale: 0.5, FixedSecureCores: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 6 {
		t.Fatalf("scaled rounds = %d, want 6", res.Rounds)
	}
}

func TestResultAccessors(t *testing.T) {
	r := &Result{
		CompletionCycles: 1000, EntryExitCycles: 100, PurgeCycles: 200, ReconfigCycles: 50,
		L1Accesses: 10, L1Misses: 5, L2Accesses: 4, L2Misses: 1,
	}
	if r.ComputeCycles() != 650 {
		t.Fatalf("compute = %d", r.ComputeCycles())
	}
	if r.L1MissRate() != 0.5 || r.L2MissRate() != 0.25 {
		t.Fatal("miss rates wrong")
	}
	var empty Result
	if empty.L1MissRate() != 0 || empty.L2MissRate() != 0 {
		t.Fatal("empty miss rates should be zero")
	}
}

func TestModelsOrder(t *testing.T) {
	names := []string{"Insecure", "SGX", "MI6", "IRONHIDE"}
	models := Models()
	if len(models) != len(names) {
		t.Fatalf("%d models", len(models))
	}
	for i, m := range models {
		if m.Name() != names[i] {
			t.Fatalf("model %d = %s, want %s", i, m.Name(), names[i])
		}
	}
}
