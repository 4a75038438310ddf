package attack

import (
	"reflect"
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/core"
	"ironhide/internal/enclave"
	"ironhide/internal/sim"
)

// TestCovertChannelDifferential is the differential security table: the
// same Prime+Probe channel mounted under every enclave model must leak
// through the shared memory systems and die under strong isolation.
func TestCovertChannelDifferential(t *testing.T) {
	cases := []struct {
		model enclave.Model
		leaks bool
	}{
		{enclave.Insecure{}, true},
		{enclave.SGXLike{}, true},
		{enclave.MulticoreMI6{}, false},
		{core.New(32), false},
	}
	for _, tc := range cases {
		t.Run(tc.model.Name(), func(t *testing.T) {
			res, err := CovertChannel(tc.model, 64, 42)
			if err != nil {
				t.Fatal(err)
			}
			if tc.leaks {
				if res.Collisions == 0 {
					t.Fatal("attacker found no collision sets in a shared L2")
				}
				if !res.Leaks() {
					t.Fatalf("accuracy %.2f; Prime+Probe should succeed on a shared L2", res.Accuracy())
				}
				return
			}
			if res.Collisions != 0 {
				t.Fatalf("attacker built %d cross-domain collision sets under strong isolation", res.Collisions)
			}
			if res.Leaks() {
				t.Fatalf("accuracy %.2f; strong isolation must kill the channel", res.Accuracy())
			}
			if res.Accuracy() > 0.55 {
				t.Fatalf("accuracy %.2f exceeds the coin-flip bound of 0.55", res.Accuracy())
			}
		})
	}
}

// TestReconfigResidueDifferential proves the dynamic-isolation purge path
// is load-bearing: after a secure-cluster shrink, the resized-away core's
// primed L1/L2 state must be unreadable — zero residue and coin-flip
// accuracy for even a perfect state-oracle receiver — while the ablated
// resize that skips the purges leaks the secret nearly perfectly.
func TestReconfigResidueDifferential(t *testing.T) {
	const trials = 96
	purged, err := ReconfigResidue(trials, 42, true)
	if err != nil {
		t.Fatal(err)
	}
	if purged.MaxResidue != 0 {
		t.Fatalf("purged resize left %d secure-owned lines readable by the new owner", purged.MaxResidue)
	}
	if acc := purged.Accuracy(); acc > 0.55 {
		t.Fatalf("post-resize accuracy %.2f exceeds the coin-flip bound of 0.55", acc)
	}
	if purged.PurgeCycles <= 0 {
		t.Fatalf("resizes charged %d purge cycles; dynamic isolation must not be free", purged.PurgeCycles)
	}

	naive, err := ReconfigResidue(trials, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	if naive.MaxResidue == 0 {
		t.Fatal("ablated resize left no residue; the experiment no longer distinguishes the purge path")
	}
	if acc := naive.Accuracy(); acc < 0.9 {
		t.Fatalf("ablated resize accuracy %.2f; the unpurged channel should read the secret", acc)
	}
	if naive.PurgeCycles != 0 {
		t.Fatalf("ablated resize charged %d purge cycles; it must skip them", naive.PurgeCycles)
	}
}

func TestResultAccessors(t *testing.T) {
	r := Result{Model: "X", Trials: 10, Correct: 9}
	if r.Accuracy() != 0.9 || !r.Leaks() {
		t.Fatal("accessors wrong")
	}
	var empty Result
	if empty.Accuracy() != 0 || empty.Leaks() {
		t.Fatal("empty result should not leak")
	}
	if r.String() == "" {
		t.Fatal("empty summary")
	}
}

// TestCovertChannelTargetsArePure: the channel's (slice, set) targets are
// a function of the machine alone. Five machines configured alike yield
// the same target list, so a channel whose accuracy lies between chance
// and 1.0 reports the same figure on every run.
func TestCovertChannelTargetsArePure(t *testing.T) {
	for _, model := range []enclave.Model{enclave.Insecure{}, core.New(32)} {
		var want []target
		for run := 0; run < 5; run++ {
			m, err := sim.NewMachine(arch.TileGx72())
			if err != nil {
				t.Fatal(err)
			}
			if err := model.Configure(m); err != nil {
				t.Fatal(err)
			}
			got := channelTargets(m)
			if len(got) == 0 {
				t.Fatalf("%s: no targets", model.Name())
			}
			if run == 0 {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s run %d chose targets %v, run 0 chose %v", model.Name(), run, got, want)
			}
		}
		if model.StrongIsolation() == (want[0].send != nil) {
			t.Fatalf("%s: collision targets %v under strong isolation %v", model.Name(), want[0].send != nil, model.StrongIsolation())
		}
	}
}
