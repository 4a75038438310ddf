package driver

import (
	"reflect"
	"testing"

	"ironhide/internal/arch"
)

// Pooled machines must be behaviorally invisible: a sequence of runs that
// recycles machines through the arena has to produce Results byte-identical
// to the same sequence on fresh machines, under every model and across
// reconfigurations (each model reconfigures the machine it gets, so a
// recycled machine always arrives dirty from a different model's probe).
func TestMachinePoolMatchesFresh(t *testing.T) {
	if disableMachinePool {
		t.Fatal("machine pool is disabled at test start")
	}
	cfg := arch.TileGx72()

	sequence := func() []*Result {
		var out []*Result
		// Interleave models and bindings so consecutive acquisitions see
		// residue from differently configured runs.
		for _, binding := range []int{12, 40} {
			for _, model := range Models() {
				res, err := RunLive(cfg, model, tinyApp, Options{Seed: 7, FixedSecureCores: binding})
				if err != nil {
					t.Fatalf("%s/%d: %v", model.Name(), binding, err)
				}
				out = append(out, res)
			}
		}
		return out
	}

	pooled := sequence() // arena active: machines recycle across runs

	disableMachinePool = true
	defer func() { disableMachinePool = false }()
	fresh := sequence() // every run builds its machine from scratch

	if len(pooled) != len(fresh) {
		t.Fatalf("run counts differ: %d pooled, %d fresh", len(pooled), len(fresh))
	}
	for i := range pooled {
		if !reflect.DeepEqual(pooled[i], fresh[i]) {
			t.Fatalf("run %d diverged on a pooled machine\npooled: %+v\nfresh:  %+v",
				i, pooled[i], fresh[i])
		}
	}
}
