package driver_test

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"ironhide/internal/apps"
	"ironhide/internal/arch"
	"ironhide/internal/core"
	"ironhide/internal/driver"
	"ironhide/internal/enclave"
)

// The record-once/replay-many engine is only admissible if replay is
// bit-exact: for every application in the catalog, under every model, at
// several distinct cluster bindings, a run replayed from one shared
// capture must produce a Result byte-identical to live payload execution
// — completion cycles, overhead breakdowns, L1/L2 miss counts, route
// violations, and blocked accesses included. This is the gate that lets
// the binding search and the experiment grids go payload-free.
func TestReplayEquivalenceCatalog(t *testing.T) {
	cfg := arch.TileGx72()
	const scale = 0.03
	bindings := []int{12, 32, 52}

	entries := apps.Catalog()
	if testing.Short() {
		entries = entries[:3] // one graph app (the hardest), plus vision
	}
	for _, entry := range entries {
		entry := entry
		t.Run(entry.Alias, func(t *testing.T) {
			t.Parallel()
			opts := driver.Options{Scale: scale, Seed: 11}
			tr, err := driver.CaptureTrace(cfg, entry.Factory, opts)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Captured() == 0 || tr.Bytes() == 0 {
				t.Fatal("capture recorded nothing")
			}
			for _, model := range driver.Models() {
				for _, binding := range bindings {
					o := opts
					o.FixedSecureCores = binding
					live, err := driver.RunLive(cfg, model, entry.Factory, o)
					if err != nil {
						t.Fatalf("%s/%d live: %v", model.Name(), binding, err)
					}
					replayed, err := driver.RunTrace(cfg, model, tr, o)
					if err != nil {
						t.Fatalf("%s/%d replay: %v", model.Name(), binding, err)
					}
					if !reflect.DeepEqual(live, replayed) {
						t.Fatalf("%s at %d secure cores: replay diverged\nlive:   %+v\nreplay: %+v",
							model.Name(), binding, live, replayed)
					}
					// The batch kernel (pre-lowered plans + ReplayRun) must
					// also match the per-op reference interpreter exactly —
					// the two replayers are independent implementations of
					// the same IR.
					reference, err := driver.RunTraceReference(cfg, model, tr, o)
					if err != nil {
						t.Fatalf("%s/%d reference replay: %v", model.Name(), binding, err)
					}
					if !reflect.DeepEqual(reference, replayed) {
						t.Fatalf("%s at %d secure cores: batch kernel diverged from per-op reference\nreference: %+v\nbatch:     %+v",
							model.Name(), binding, reference, replayed)
					}
					if live.RouteViolations != 0 {
						t.Fatalf("%s/%d: %d route violations", model.Name(), binding, live.RouteViolations)
					}
				}
			}
		})
	}
}

// The machine arena must drive replayed search strictly below live execution
// in allocation volume, not just wall clock: an Optimal-oracle run whose
// probes replay a shared capture has to allocate fewer total bytes than
// the same oracle run with live payload probes. (Before the machine
// arenas, replay allocated ~5% more than live — every probe built a fresh
// ~12 MB machine and threw it away.) The same runs hold each side's
// allocation count to its budget: 1.2x the steady-state count measured
// when the bounds were pinned (live 54,375, replay 6,156).
func TestOracleReplayAllocatesLessThanLive(t *testing.T) {
	if raceEnabled {
		t.Skip("over a minute under the race detector; the allocation totals need no race check")
	}
	cfg := arch.TileGx72()
	entry, ok := apps.ByName("<AES, QUERY>")
	if !ok {
		t.Fatal("catalog missing app")
	}
	// The first run in the process builds the machine every later run
	// recycles from the arena; the minimum over a few runs measures both
	// sides with recycled ones.
	opts := driver.Options{Scale: 0.1, Optimal: true, OptimalStride: 4, Seed: 5}
	measure := func(run func(arch.Config, enclave.Model, driver.AppFactory, driver.Options) (*driver.Result, error)) (total, mallocs uint64) {
		total, mallocs = math.MaxUint64, math.MaxUint64
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := run(cfg, core.New(32), entry.Factory, opts); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			total = min(total, after.TotalAlloc-before.TotalAlloc)
			mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		}
		return total, mallocs
	}
	live, liveAllocs := measure(driver.RunLive)
	replay, replayAllocs := measure(driver.Run)
	if replay >= live {
		t.Fatalf("oracle replay allocated %d bytes, live %d — replay must stay strictly below live", replay, live)
	}
	if liveAllocs > 65250 || replayAllocs > 7386 {
		t.Fatalf("oracle allocs/op: live %d (bound 65250), replay %d (bound 7386)", liveAllocs, replayAllocs)
	}
	t.Logf("oracle total alloc: live %.1f MB in %d allocs, replay %.1f MB in %d allocs (%.2fx)",
		float64(live)/1e6, liveAllocs, float64(replay)/1e6, replayAllocs, float64(live)/float64(replay))
}

// A binding search and the run it installs must not depend on the seed:
// Options.Seed only derives attestation keys, so for every catalog app,
// under both spatial models, SearchTrace's answer and RunTrace's
// completion are identical across seeds. This is the premise that lets a
// search answer be memoized per (config, model, trace, search options).
func TestSearchAndRunIgnoreSeed(t *testing.T) {
	if raceEnabled {
		t.Skip("about 50 s under the race detector; the searches are sequential and TestReplayEquivalenceCatalog already runs the replay path concurrently under it")
	}
	cfg := arch.TileGx72()
	const scale = 0.03
	seeds := []int64{1, 7, 1 << 40}
	models := []enclave.Model{core.New(32), enclave.Insecure{}}
	for _, entry := range apps.Catalog() {
		t.Run(entry.Alias, func(t *testing.T) {
			t.Parallel()
			tr, err := driver.CaptureTrace(cfg, entry.Factory, driver.Options{Scale: scale})
			if err != nil {
				t.Fatal(err)
			}
			for _, model := range models {
				var wantSR driver.SearchResult
				var wantCycles int64
				for i, seed := range seeds {
					opts := driver.Options{Scale: scale, Seed: seed}
					sr, err := driver.SearchTrace(cfg, model, tr, opts)
					if err != nil {
						t.Fatal(err)
					}
					res, err := driver.RunTrace(cfg, model, tr, opts)
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						wantSR, wantCycles = sr, res.CompletionCycles
						continue
					}
					if sr != wantSR || res.CompletionCycles != wantCycles {
						t.Fatalf("%s seed %d: search %+v, %d cycles; seed %d gave %+v, %d cycles",
							model.Name(), seed, sr, res.CompletionCycles, seeds[0], wantSR, wantCycles)
					}
				}
			}
		})
	}
}
