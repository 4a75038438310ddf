package driver

import (
	"encoding/json"
	"reflect"
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/cache"
	"ironhide/internal/graphalg"
	"ironhide/internal/graphgen"
	"ironhide/internal/trace"
	"ironhide/internal/workload"
)

// tinyApp2 is a second, distinct interactive application so co-tenancy
// tests exercise genuinely different address streams per tenant.
func tinyApp2() *workload.App {
	g := graphgen.NewRoadNetwork(20, 20, 45, 5)
	gen := graphgen.NewGenerator(g, 20, 11)
	return &workload.App{
		Name: "tiny2", Class: workload.User,
		Insecure: gen,
		Secure:   graphalg.NewSSSP(gen, 1, 2),
		Rounds:   10, Warmup: 2, ProfileRounds: 4,
		PayloadBytes: 384, ReplyBytes: 96,
	}
}

func cores(ids ...int) []arch.CoreID {
	out := make([]arch.CoreID, len(ids))
	for i, id := range ids {
		out[i] = arch.CoreID(id)
	}
	return out
}

func coreRange(lo, hi int) []arch.CoreID {
	out := make([]arch.CoreID, 0, hi-lo)
	for c := lo; c < hi; c++ {
		out = append(out, arch.CoreID(c))
	}
	return out
}

func sliceRange(lo, hi int) []cache.SliceID {
	out := make([]cache.SliceID, 0, hi-lo)
	for s := lo; s < hi; s++ {
		out = append(out, cache.SliceID(s))
	}
	return out
}

func captureTwo(t *testing.T, cfg arch.Config) (*trace.Trace, *trace.Trace) {
	t.Helper()
	trA, err := CaptureTrace(cfg, tinyApp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	trB, err := CaptureTrace(cfg, tinyApp2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return trA, trB
}

// disjointTenants places two tenants on fully disjoint shares of the
// machine: separate core rows, separate L2 slices, separate memory
// controllers (regions 0/4 = MC0 vs 1/5 = MC1 on the secure side, 2/6 =
// MC2 vs 3/7 = MC3 on the insecure side), and mesh routes that share no
// directed link. With nothing shared, co-running must equal solo running.
func disjointTenants(trA, trB *trace.Trace) []CoTenant {
	return []CoTenant{
		{
			Trace:           trA,
			SecureCores:     coreRange(0, 8),   // row 0
			InsecureCores:   coreRange(48, 52), // row 6, x 0..3
			SecureSlices:    sliceRange(0, 8),
			InsecureSlices:  sliceRange(48, 52),
			SecureRegions:   []int{0, 4}, // MC0
			InsecureRegions: []int{2, 6}, // MC2
		},
		{
			Trace:           trB,
			SecureCores:     coreRange(8, 16),  // row 1
			InsecureCores:   coreRange(60, 64), // row 7, x 4..7
			SecureSlices:    sliceRange(8, 16),
			InsecureSlices:  sliceRange(60, 64),
			SecureRegions:   []int{1, 5}, // MC1
			InsecureRegions: []int{3, 7}, // MC3
		},
	}
}

// overlapTenants places two tenants on disjoint cores but shared L2
// slices, shared memory controllers, and overlapping mesh rows — the
// maximally contended placement.
func overlapTenants(trA, trB *trace.Trace) []CoTenant {
	return []CoTenant{
		{Trace: trA, SecureCores: coreRange(0, 4), InsecureCores: coreRange(48, 52)},
		{Trace: trB, SecureCores: coreRange(4, 8), InsecureCores: coreRange(52, 56)},
	}
}

// The zero-interference cross-check: tenants whose cores, slices, regions,
// and mesh routes are all disjoint must replay byte-identically co-resident
// and solo — interference is provably zero, not just small.
func TestCoRunDisjointMatchesSolo(t *testing.T) {
	cfg := arch.TileGx72()
	trA, trB := captureTwo(t, cfg)
	tenants := disjointTenants(trA, trB)
	opts := CoRunOptions{Seed: 7}

	co, err := CoRunTraces(cfg, tenants, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range co.Tenants {
		if tr.CompletionCycles <= 0 {
			t.Fatalf("tenant %d: empty completion", i)
		}
		if tr.LinkConflicts != 0 {
			t.Fatalf("tenant %d: %d link conflicts on disjoint placement", i, tr.LinkConflicts)
		}
	}
	if co.RouteViolations != 0 || co.BlockedAccesses != 0 {
		t.Fatalf("isolation violated: %d route violations, %d blocked", co.RouteViolations, co.BlockedAccesses)
	}

	soloOpts := opts
	soloOpts.Active = []bool{true, false}
	soloA, err := CoRunTraces(cfg, tenants, soloOpts)
	if err != nil {
		t.Fatal(err)
	}
	soloOpts.Active = []bool{false, true}
	soloB, err := CoRunTraces(cfg, tenants, soloOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := co.Tenants[0].CompletionCycles, soloA.Tenants[0].CompletionCycles; got != want {
		t.Fatalf("tenant 0 co-run completion %d != solo %d on disjoint resources", got, want)
	}
	if got, want := co.Tenants[1].CompletionCycles, soloB.Tenants[1].CompletionCycles; got != want {
		t.Fatalf("tenant 1 co-run completion %d != solo %d on disjoint resources", got, want)
	}
	if !soloA.Tenants[1].Active && soloA.Tenants[1].CompletionCycles != 0 {
		t.Fatalf("inactive tenant measured %d cycles", soloA.Tenants[1].CompletionCycles)
	}
}

// Overlapping placements must show real interference: nonzero link
// conflicts, and no tenant completes faster co-resident than solo.
func TestCoRunOverlapInterferes(t *testing.T) {
	cfg := arch.TileGx72()
	trA, trB := captureTwo(t, cfg)
	tenants := overlapTenants(trA, trB)
	opts := CoRunOptions{Seed: 7}

	co, err := CoRunTraces(cfg, tenants, opts)
	if err != nil {
		t.Fatal(err)
	}
	var conflicts int64
	for _, tr := range co.Tenants {
		conflicts += tr.LinkConflicts
	}
	if conflicts == 0 {
		t.Fatal("no link conflicts on an overlapping placement")
	}
	if co.RouteViolations != 0 {
		t.Fatalf("%d route violations", co.RouteViolations)
	}

	var slower bool
	for i := range tenants {
		soloOpts := opts
		soloOpts.Active = make([]bool, len(tenants))
		soloOpts.Active[i] = true
		solo, err := CoRunTraces(cfg, tenants, soloOpts)
		if err != nil {
			t.Fatal(err)
		}
		coC, soloC := co.Tenants[i].CompletionCycles, solo.Tenants[i].CompletionCycles
		if coC < soloC {
			t.Fatalf("tenant %d completed faster co-resident (%d) than solo (%d)", i, coC, soloC)
		}
		if coC > soloC {
			slower = true
		}
	}
	if !slower {
		t.Fatal("no tenant slowed down on an overlapping placement")
	}
}

// Co-runs are deterministic: the same tenant set yields a byte-identical
// result on every run.
func TestCoRunDeterministic(t *testing.T) {
	cfg := arch.TileGx72()
	trA, trB := captureTwo(t, cfg)
	for _, mk := range []func() []CoTenant{
		func() []CoTenant { return disjointTenants(trA, trB) },
		func() []CoTenant { return overlapTenants(trA, trB) },
	} {
		opts := CoRunOptions{Seed: 7}
		r1, err := CoRunTraces(cfg, mk(), opts)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := CoRunTraces(cfg, mk(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("co-run not deterministic:\n%+v\n%+v", r1, r2)
		}
		j1, _ := json.Marshal(r1)
		j2, _ := json.Marshal(r2)
		if string(j1) != string(j2) {
			t.Fatalf("co-run JSON not byte-identical:\n%s\n%s", j1, j2)
		}
	}
}

// Ill-formed co-run requests are rejected before touching a machine.
func TestCoRunValidation(t *testing.T) {
	cfg := arch.TileGx72()
	trA, err := CaptureTrace(cfg, tinyApp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ok := CoTenant{Trace: trA, SecureCores: coreRange(0, 4), InsecureCores: coreRange(48, 52)}
	cases := []struct {
		name    string
		tenants []CoTenant
		opts    CoRunOptions
	}{
		{"no tenants", nil, CoRunOptions{}},
		{"nil trace", []CoTenant{{SecureCores: cores(0), InsecureCores: cores(48)}}, CoRunOptions{}},
		{"scale mismatch", []CoTenant{ok}, CoRunOptions{Scale: 0.5}},
		{"overlapping cores", []CoTenant{ok, {Trace: trA, SecureCores: coreRange(2, 6), InsecureCores: coreRange(52, 56)}}, CoRunOptions{}},
		{"secure core in insecure cluster", []CoTenant{{Trace: trA, SecureCores: cores(40), InsecureCores: cores(48)}}, CoRunOptions{}},
		{"insecure core in secure cluster", []CoTenant{{Trace: trA, SecureCores: cores(0), InsecureCores: cores(8)}}, CoRunOptions{}},
		{"missing insecure cores", []CoTenant{{Trace: trA, SecureCores: cores(0)}}, CoRunOptions{}},
		{"bad active mask", []CoTenant{ok}, CoRunOptions{Active: []bool{true, false}}},
		{"negative secure cluster", []CoTenant{ok}, CoRunOptions{SecureCores: -1}},
		{"secure slice outside cluster", []CoTenant{{Trace: trA, SecureCores: cores(0), InsecureCores: cores(48), SecureSlices: sliceRange(40, 44)}}, CoRunOptions{}},
		{"insecure region not insecure-owned", []CoTenant{{Trace: trA, SecureCores: cores(0), InsecureCores: cores(48), InsecureRegions: []int{0}}}, CoRunOptions{}},
	}
	for _, tc := range cases {
		if _, err := CoRunTraces(cfg, tc.tenants, tc.opts); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
}
