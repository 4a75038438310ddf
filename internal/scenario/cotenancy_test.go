package scenario

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ironhide/internal/apps"
	"ironhide/internal/driver"
	"ironhide/internal/trace"
)

// Co-tenancy timelines must hold the same determinism contract as
// time-shared ones: byte-identical Report JSON at any worker count, even
// with engines racing each other.
func TestCoTenancyDeterministicReplay(t *testing.T) {
	spec := Spec{
		Seed: 42, Scale: 0.05, Events: 6,
		Apps:      []string{"aes-query", "sssp-graph"},
		CoTenancy: true,
	}
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

	rep := reps[0]
	if !rep.CoTenancy || rep.Policy != "interference-aware" {
		t.Fatalf("report not marked co-tenant: cotenancy=%v policy=%q", rep.CoTenancy, rep.Policy)
	}
	if rep.RouteViolations != 0 {
		t.Fatalf("co-tenant timeline recorded %d route violations", rep.RouteViolations)
	}
	var coResident bool
	for _, ph := range rep.Phases {
		if len(ph.Runs) == 0 {
			continue
		}
		if ph.Policy == "" || ph.CoRunCycles <= 0 {
			t.Fatalf("phase %d not measured by co-run: %+v", ph.Index, ph)
		}
		var horizon int64
		for _, run := range ph.Runs {
			if run.SoloCycles <= 0 || run.CompletionCycles <= 0 {
				t.Fatalf("phase %d run %s: empty cycles", ph.Index, run.App)
			}
			if run.Slowdown < 1 {
				t.Fatalf("phase %d run %s: co-resident faster than solo (%gx)", ph.Index, run.App, run.Slowdown)
			}
			if run.CompletionCycles > horizon {
				horizon = run.CompletionCycles
			}
		}
		// The shared horizon spans every tenant's whole run (warmup
		// included), so it can never undercut any tenant's measured window.
		if ph.CoRunCycles < horizon {
			t.Fatalf("phase %d: co-run horizon %d shorter than a tenant completion %d", ph.Index, ph.CoRunCycles, horizon)
		}
		if len(ph.Runs) > 1 {
			coResident = true
		}
	}
	if !coResident {
		t.Fatal("timeline never reached a multi-tenant phase; pick a different seed")
	}
}

// Every packing policy drives a valid timeline, and the spec validation
// rejects misuse.
func TestCoTenancyPoliciesAndValidation(t *testing.T) {
	timeline := []Event{
		{Kind: Arrive, App: "aes-query"},
		{Kind: Arrive, App: "sssp-graph"},
		{Kind: LoadShift, App: "aes-query", Factor: 2},
	}
	for _, policy := range []string{"best-fit", "interference-aware", "fairness-floor"} {
		spec := Spec{Seed: 7, Scale: 0.05, Timeline: timeline, CoTenancy: true, Policy: policy}
		rep, err := Run(testCfg(), spec, Options{})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if rep.Policy != policy {
			t.Fatalf("%s: report says %q", policy, rep.Policy)
		}
	}

	bad := []Spec{
		{Scale: 0.05, CoTenancy: true, Policy: "nope"},
		{Scale: 0.05, Policy: "best-fit"}, // policy without co-tenancy
		{Scale: 0.05, CoTenancy: true, Model: "Insecure"},
	}
	for _, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Fatalf("spec %+v accepted", spec)
		}
	}
}

// memoTraces captures each application once per test and shares the
// trace across runs, as the service's trace cache does.
func memoTraces() func(apps.Entry, float64) (*trace.Trace, error) {
	var mu sync.Mutex
	memo := map[string]*trace.Trace{}
	return func(entry apps.Entry, scale float64) (*trace.Trace, error) {
		mu.Lock()
		defer mu.Unlock()
		key := fmt.Sprintf("%s@%g", entry.Alias, scale)
		if tr, ok := memo[key]; ok {
			return tr, nil
		}
		tr, err := driver.CaptureTrace(testCfg(), entry.Factory, driver.Options{Scale: scale})
		if err != nil {
			return nil, err
		}
		memo[key] = tr
		return tr, nil
	}
}

// Every generated co-tenant timeline completes under every reconfiguration
// policy. When a tenant arrives at a binding outside [tenants,
// cores-tenants] — left there by an earlier deferral — the phase cannot
// pack every tenant into both clusters, so the engine forces the resize
// the policy would defer. "always" never defers, so it never forces.
func TestCoTenantTimelinesCompleteUnderEveryPolicy(t *testing.T) {
	traceFor := memoTraces()
	for _, pol := range ReconfigPolicyNames() {
		t.Run(pol, func(t *testing.T) {
			t.Parallel()
			forced := 0
			for seed := int64(1); seed <= 30; seed++ {
				spec := Spec{Seed: seed, Scale: 0.05, Events: 8, CoTenancy: true, ReconfigPolicy: pol}
				rep, err := Run(testCfg(), spec, Options{TraceFor: traceFor})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if rep.RouteViolations != 0 {
					t.Fatalf("seed %d: %d route violations", seed, rep.RouteViolations)
				}
				for _, ph := range rep.Phases {
					n := len(ph.Tenants)
					if ph.BindingTo < n || ph.BindingTo > testCfg().Cores()-n {
						t.Fatalf("seed %d phase %d: binding %d leaves one of %d tenants without a core", seed, ph.Index, ph.BindingTo, n)
					}
					if ph.ForcedResize {
						forced++
						if ph.PolicyDeferred || ph.BudgetDenied || ph.CoresMoved == 0 || ph.PurgeCycles <= 0 {
							t.Fatalf("seed %d phase %d: implausible forced resize %+v", seed, ph.Index, ph)
						}
					}
				}
			}
			t.Logf("%s: %d forced resizes", pol, forced)
			if (pol == "always") != (forced == 0) {
				t.Fatalf("%d forced resizes under %s", forced, pol)
			}
		})
	}
}
