package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/metrics"
)

func testCfg() arch.Config { return arch.TileGx72Scaled(12) }

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeterministicReplay is the engine's acceptance gate: the same seed
// must yield a byte-identical Report JSON at any worker count, including
// when two engines run concurrently (the CI race job re-runs this under
// the race detector).
func TestDeterministicReplay(t *testing.T) {
	spec := Spec{Seed: 42, Scale: 0.05, Events: 6, Apps: []string{"aes-query", "sssp-graph"}}
	var reps [3]*Report
	var errs [3]error
	var wg sync.WaitGroup
	for i, workers := range []int{1, 4, 2} {
		wg.Add(1)
		go func(slot, workers int) {
			defer wg.Done()
			reps[slot], errs[slot] = Run(testCfg(), spec, Options{Workers: workers})
		}(i, workers)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	ref := reportJSON(t, reps[0])
	for i := 1; i < len(reps); i++ {
		if got := reportJSON(t, reps[i]); !bytes.Equal(ref, got) {
			t.Fatalf("run %d diverged from run 0:\n%s\nvs\n%s", i, ref, got)
		}
	}
	if reps[0].RouteViolations != 0 {
		t.Fatalf("timeline recorded %d route violations; contained routing must never fail", reps[0].RouteViolations)
	}
}

// TestPurgeChargedOnEveryResize forces a resize-heavy timeline and checks
// the dynamic-isolation invariant: every phase that moved cores between
// domains charged purge cycles for them.
func TestPurgeChargedOnEveryResize(t *testing.T) {
	spec := Spec{
		Seed: 7, Scale: 0.05,
		Timeline: []Event{
			{Kind: Arrive, App: "aes-query"},
			{Kind: Arrive, App: "tc-graph"},
			{Kind: Depart, App: "tc-graph"},
			{Kind: Arrive, App: "sssp-graph"},
		},
	}
	rep, err := Run(testCfg(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resizes := 0
	for _, p := range rep.Phases {
		if p.BudgetDenied {
			continue
		}
		if p.CoresMoved > 0 {
			resizes++
			if p.PurgeCycles <= 0 {
				t.Fatalf("phase %d (%s) moved %d cores but charged %d purge cycles", p.Index, p.Event, p.CoresMoved, p.PurgeCycles)
			}
		} else if p.PurgeCycles != 0 {
			t.Fatalf("phase %d (%s) moved no cores but charged %d purge cycles", p.Index, p.Event, p.PurgeCycles)
		}
	}
	if resizes == 0 {
		t.Fatal("timeline performed no resizes; the test needs at least one to be meaningful")
	}
	if rep.TotalPurgeCycles <= 0 {
		t.Fatalf("total purge cycles %d; a resize-heavy IRONHIDE timeline must pay for isolation", rep.TotalPurgeCycles)
	}
}

// TestBudgetDeniesMidInvocationResize: the kernel allows one dynamic
// hardware isolation event per application invocation, so a load shift
// that wants a second resize inside the arrival's invocation is refused —
// unless the spec raises the budget.
func TestBudgetDeniesMidInvocationResize(t *testing.T) {
	timeline := []Event{
		{Kind: Arrive, App: "sssp-graph"},
		{Kind: LoadShift, App: "sssp-graph", Factor: 0.5},
	}
	spec := Spec{Seed: 3, Scale: 0.05, Timeline: timeline}
	rep, err := Run(testCfg(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phases[0].CoresMoved == 0 {
		t.Skip("arrival landed on the initial binding; budget path not exercised at this seed/scale")
	}
	if !rep.Phases[1].BudgetDenied {
		t.Fatalf("load shift inside the arrival invocation was not denied: %+v", rep.Phases[1])
	}
	if rep.Phases[1].BindingTo != rep.Phases[1].BindingFrom {
		t.Fatal("a denied resize must leave the binding unchanged")
	}

	spec.ReconfigLimit = 2
	rep2, err := Run(testCfg(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Phases[1].BudgetDenied {
		t.Fatal("with a budget of 2 the load-shift resize must be authorized")
	}
	if rep2.Phases[1].CoresMoved > 0 && rep2.Phases[1].PurgeCycles <= 0 {
		t.Fatal("the authorized second resize moved cores without charging purge cycles")
	}
}

// TestInsecureBaselineResizesFree: the insecure baseline moves the
// boundary without purging anything — the cost IRONHIDE pays is exactly
// what the baseline leaks.
func TestInsecureBaselineResizesFree(t *testing.T) {
	spec := Spec{
		Seed: 7, Scale: 0.05, Model: "Insecure",
		Timeline: []Event{
			{Kind: Arrive, App: "aes-query"},
			{Kind: Arrive, App: "tc-graph"},
		},
	}
	rep, err := Run(testCfg(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model != "Insecure" {
		t.Fatalf("model = %q", rep.Model)
	}
	if rep.TotalPurgeCycles != 0 {
		t.Fatalf("insecure baseline charged %d purge cycles; resizes must be free (that is the vulnerability)", rep.TotalPurgeCycles)
	}
	if rep.Denied != 0 {
		t.Fatalf("insecure baseline has no kernel budget to deny resizes, got %d denials", rep.Denied)
	}
}

// TestTemporalModelRejected: temporal models time-share the whole machine
// and cannot host a spatial multi-tenant timeline.
func TestTemporalModelRejected(t *testing.T) {
	for _, model := range []string{"SGX", "MI6", "bogus"} {
		_, err := Run(testCfg(), Spec{Model: model, Scale: 0.05}, Options{})
		if err == nil {
			t.Fatalf("model %q must be rejected", model)
		}
	}
}

// TestEventValidation: ill-formed explicit timelines fail loudly.
func TestEventValidation(t *testing.T) {
	cases := []struct {
		name     string
		timeline []Event
	}{
		{"depart non-resident", []Event{{Kind: Depart, App: "aes-query"}}},
		{"double arrive", []Event{{Kind: Arrive, App: "aes-query"}, {Kind: Arrive, App: "aes-query"}}},
		{"shift non-resident", []Event{{Kind: LoadShift, App: "aes-query", Factor: 2}}},
		{"bad factor", []Event{{Kind: Arrive, App: "aes-query"}, {Kind: LoadShift, App: "aes-query", Factor: 0}}},
		{"unknown kind", []Event{{Kind: "explode", App: "aes-query"}}},
		{"unknown app", []Event{{Kind: Arrive, App: "nope"}}},
	}
	for _, tc := range cases {
		if _, err := Run(testCfg(), Spec{Scale: 0.05, Timeline: tc.timeline}, Options{}); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
}

// TestTenantNamesResolveToOneTenant: events may name a tenant by paper
// label, alias, or space-padded alias, and all three are one tenant — in
// Validate's residency walk and in the engine alike, so a timeline that
// validates always applies.
func TestTenantNamesResolveToOneTenant(t *testing.T) {
	// A generated timeline over a paper-label pool load-shifts and departs
	// by label: it measures exactly what the alias pool measures.
	byLabel, err := Run(testCfg(), Spec{Seed: 5, Scale: 0.05, Events: 5, Apps: []string{"<AES, QUERY>"}}, Options{})
	if err != nil {
		t.Fatalf("paper-label pool: %v", err)
	}
	byAlias, err := Run(testCfg(), Spec{Seed: 5, Scale: 0.05, Events: 5, Apps: []string{"aes-query"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if byLabel.TotalCycles != byAlias.TotalCycles || len(byLabel.Phases) != len(byAlias.Phases) {
		t.Fatalf("label pool measured %d cycles over %d phases, alias pool %d over %d",
			byLabel.TotalCycles, len(byLabel.Phases), byAlias.TotalCycles, len(byAlias.Phases))
	}

	mixed := []Event{
		{Kind: Arrive, App: " aes-query"},
		{Kind: Arrive, App: "<TC, GRAPH>"},
		{Kind: LoadShift, App: "<AES, QUERY>", Factor: 2},
		{Kind: Depart, App: "tc-graph "},
		{Kind: Depart, App: " aes-query"},
		{Kind: Arrive, App: "aes-query"},
	}
	rep, err := Run(testCfg(), Spec{Seed: 5, Scale: 0.05, Timeline: mixed}, Options{})
	if err != nil {
		t.Fatalf("mixed names: %v", err)
	}
	if len(rep.Phases) != len(mixed) {
		t.Fatalf("mixed names ran %d phases, want %d", len(rep.Phases), len(mixed))
	}

	for _, bad := range [][]Event{
		{{Kind: Arrive, App: "aes-query"}, {Kind: Arrive, App: "<AES, QUERY>"}},
		{{Kind: Arrive, App: "<AES, QUERY>"}, {Kind: Depart, App: "aes-query"}, {Kind: LoadShift, App: " aes-query", Factor: 2}},
	} {
		if err := (Spec{Timeline: bad}).Validate(); err == nil {
			t.Fatalf("timeline %v validated, but its names resolve to one tenant", bad)
		}
	}
}

// TestGenerateTimelineAlwaysApplies: generated schedules are valid by
// construction — arrivals admit non-residents within the tenant bound,
// departures and shifts name residents, and the machine never empties.
func TestGenerateTimelineAlwaysApplies(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		spec := Spec{Seed: seed, Events: 12}
		resident := map[string]bool{}
		for i, ev := range Generate(spec) {
			switch ev.Kind {
			case Arrive:
				if resident[ev.App] {
					t.Fatalf("seed %d event %d: arrival of resident %s", seed, i, ev.App)
				}
				if len(resident) >= spec.maxTenants() {
					t.Fatalf("seed %d event %d: arrival past MaxTenants", seed, i)
				}
				resident[ev.App] = true
			case Depart:
				if !resident[ev.App] {
					t.Fatalf("seed %d event %d: departure of non-resident %s", seed, i, ev.App)
				}
				delete(resident, ev.App)
				if len(resident) == 0 {
					t.Fatalf("seed %d event %d: machine emptied", seed, i)
				}
			case LoadShift:
				if !resident[ev.App] {
					t.Fatalf("seed %d event %d: load shift of non-resident %s", seed, i, ev.App)
				}
				if ev.Factor <= 0 {
					t.Fatalf("seed %d event %d: factor %g", seed, i, ev.Factor)
				}
			default:
				t.Fatalf("seed %d event %d: kind %q", seed, i, ev.Kind)
			}
		}
	}
}

// TestGridAcrossModels sweeps one timeline across the enclave-model axis
// on a worker pool and checks ordered, model-correct reports.
func TestGridAcrossModels(t *testing.T) {
	specs := []Spec{
		{Seed: 11, Scale: 0.05, Events: 3, Apps: []string{"aes-query"}, Model: "IRONHIDE"},
		{Seed: 11, Scale: 0.05, Events: 3, Apps: []string{"aes-query"}, Model: "Insecure"},
	}
	reps, err := Grid(testCfg(), specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reps[0].Model != "IRONHIDE" || reps[1].Model != "Insecure" {
		t.Fatalf("grid order lost: %s, %s", reps[0].Model, reps[1].Model)
	}
	if len(reps[0].Phases) != len(reps[1].Phases) {
		t.Fatalf("same seed, different timelines: %d vs %d phases", len(reps[0].Phases), len(reps[1].Phases))
	}
	for i := range reps[0].Phases {
		if reps[0].Phases[i].Event != reps[1].Phases[i].Event {
			t.Fatalf("phase %d events diverged: %q vs %q", i, reps[0].Phases[i].Event, reps[1].Phases[i].Event)
		}
	}
}

// TestReportSections: the report renders through every metrics emitter.
func TestReportSections(t *testing.T) {
	spec := Spec{Seed: 5, Scale: 0.05, Events: 3, Apps: []string{"aes-query"}}
	rep, err := Run(testCfg(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range metrics.Formats() {
		emit, _, err := metrics.EmitterFor(format)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := emit(&buf, rep); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s: empty emission", format)
		}
	}
	text := func() string {
		var buf bytes.Buffer
		_ = metrics.EmitText(&buf, rep)
		return buf.String()
	}()
	if !strings.Contains(text, "timeline") || !strings.Contains(text, "aes-query") {
		t.Fatalf("text report missing expected content:\n%s", text)
	}
}
