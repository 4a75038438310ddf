package driver

import (
	"reflect"
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/core"
)

// Replay must be bit-exact: a captured trace charged through a fresh
// machine has to reproduce the live run's Result — completion cycles,
// breakdowns, miss rates, and isolation counters — at every binding and
// under every model, or the payload-free search would choose different
// bindings than the live search.
func TestReplayEquivalenceTinyApp(t *testing.T) {
	cfg := arch.TileGx72()
	opts := Options{Seed: 7}
	tr, err := CaptureTrace(cfg, tinyApp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Captured() == 0 || tr.Bytes() == 0 {
		t.Fatal("capture recorded nothing")
	}
	for _, model := range Models() {
		for _, binding := range []int{8, 16, 32, 48} {
			o := opts
			o.FixedSecureCores = binding
			live, err := RunLive(cfg, model, tinyApp, o)
			if err != nil {
				t.Fatalf("%s/%d live: %v", model.Name(), binding, err)
			}
			replayed, err := RunTrace(cfg, model, tr, o)
			if err != nil {
				t.Fatalf("%s/%d replay: %v", model.Name(), binding, err)
			}
			if !reflect.DeepEqual(live, replayed) {
				t.Fatalf("%s at %d secure cores: replay diverged\nlive:   %+v\nreplay: %+v",
					model.Name(), binding, live, replayed)
			}
		}
	}
}

// The searched binding — and the whole Result — must be identical whether
// the probes execute the live payload or replay the capture.
func TestSearchReplayMatchesLive(t *testing.T) {
	cfg := arch.TileGx72()
	live, err := RunLive(cfg, core.New(32), tinyApp, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Run(cfg, core.New(32), tinyApp, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Fatalf("replay-accelerated search diverged\nlive:   %+v\nreplay: %+v", live, replayed)
	}
}

// The Optimal oracle must pick the same binding (and produce the same
// measurement) probe-for-probe under replay, at any search worker count.
func TestOptimalReplayMatchesLive(t *testing.T) {
	cfg := arch.TileGx72()
	live, err := RunLive(cfg, core.New(32), tinyApp, Options{Optimal: true, OptimalStride: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		replayed, err := Run(cfg, core.New(32), tinyApp, Options{Optimal: true, OptimalStride: 8, Seed: 3, SearchWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live, replayed) {
			t.Fatalf("Optimal with %d workers diverged\nlive:   %+v\nreplay: %+v", workers, live, replayed)
		}
	}
}

// A trace captured at one scale must refuse to replay at another: round
// counts and streams would not line up. TestSearchTraceRejectsScaleMismatch
// checks the same refusal for SearchTrace.
func TestTraceScaleMismatchRejected(t *testing.T) {
	cfg := arch.TileGx72()
	tr, err := CaptureTrace(cfg, tinyApp, Options{Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunTrace(cfg, core.New(32), tr, Options{Scale: 1, FixedSecureCores: 16}); err == nil {
		t.Fatal("scale mismatch was not rejected")
	}
}
