package driver

import (
	"reflect"
	"runtime"
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/enclave"
	"ironhide/internal/sim"
)

// Recycled machines must be behaviorally invisible: a sequence of runs
// through RunTrace, which recycles machines through the arena, has to
// produce Results byte-identical to the same sequence run straight on
// newly built machines, under every model and across reconfigurations
// (each model reconfigures the machine it gets, so a recycled machine
// always arrives dirty from a differently configured run).
func TestMachinePoolMatchesFresh(t *testing.T) {
	cfg := arch.TileGx72()
	tr, err := CaptureTrace(cfg, tinyApp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recycled := func(model enclave.Model, opts Options) (*Result, error) {
		return RunTrace(cfg, model, tr, opts)
	}
	fresh := func(model enclave.Model, opts Options) (*Result, error) {
		m, err := sim.NewMachine(cfg)
		if err != nil {
			return nil, err
		}
		if spatial, ok := model.(enclave.Spatial); ok {
			return runSpatial(m, spatial, tr.NewApp(), opts, SearchResult{SecureCores: opts.FixedSecureCores})
		}
		return runTemporal(m, model, tr.NewApp(), opts)
	}
	sequence := func(run func(enclave.Model, Options) (*Result, error)) []*Result {
		var out []*Result
		// Interleave models and bindings so consecutive acquisitions see
		// residue from differently configured runs.
		for _, binding := range []int{12, 40} {
			for _, model := range Models() {
				res, err := run(model, Options{Seed: 7, FixedSecureCores: binding})
				if err != nil {
					t.Fatalf("%s/%d: %v", model.Name(), binding, err)
				}
				out = append(out, res)
			}
		}
		return out
	}

	reused, built := sequence(recycled), sequence(fresh)
	for i := range reused {
		if !reflect.DeepEqual(reused[i], built[i]) {
			t.Fatalf("run %d diverged on a recycled machine\nrecycled: %+v\nfresh:    %+v",
				i, reused[i], built[i])
		}
	}
}

// A garbage collection must not empty the arena: the machine released
// last is the one the next acquire of its configuration gets back, however
// many collections ran in between.
func TestArenaKeepsMachinesAcrossGC(t *testing.T) {
	// A configuration no other test acquires, so no concurrent run can
	// take the released machine.
	cfg := arch.TileGx72()
	cfg.DRAMLat++
	m, err := AcquireMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ReleaseMachine(m)
	runtime.GC()
	runtime.GC()
	again, err := AcquireMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseMachine(again)
	if again != m {
		t.Fatal("the arena built a new machine after a GC instead of returning the released one")
	}
}
