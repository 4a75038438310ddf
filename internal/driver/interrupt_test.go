package driver

import (
	"errors"
	"reflect"
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/core"
	"ironhide/internal/enclave"
)

var errStop = errors.New("deadline hit")

// countdownInterrupt fires after n polls.
func countdownInterrupt(n int) func() error {
	left := n
	return func() error {
		left--
		if left < 0 {
			return errStop
		}
		return nil
	}
}

// TestInterruptStopsRun: a firing Interrupt aborts a run with its error —
// the work actually stops instead of completing for a caller that has
// already timed out. Every way of driving the interaction loop polls it:
// space-shared, time-shared, and co-run.
func TestInterruptStopsRun(t *testing.T) {
	cfg := arch.TileGx72()
	stop := func() error { return errStop }
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"spatial", func() error {
			_, err := Run(cfg, core.New(32), tinyApp, Options{Seed: 5, Interrupt: stop})
			return err
		}},
		{"temporal", func() error {
			_, err := Run(cfg, enclave.SGXLike{}, tinyApp, Options{Seed: 5, Interrupt: stop})
			return err
		}},
		{"co-run", func() error {
			trA, trB := captureTwo(t, cfg)
			_, err := CoRunTraces(cfg, overlapTenants(trA, trB), CoRunOptions{Seed: 5, Interrupt: stop})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); !errors.Is(err, errStop) {
				t.Fatalf("run under firing interrupt: err=%v, want errStop", err)
			}
		})
	}
}

// TestInterruptStopsCapture: capture polls the checkpoint too.
func TestInterruptStopsCapture(t *testing.T) {
	cfg := arch.TileGx72()
	opts := Options{Seed: 5, Interrupt: countdownInterrupt(1)}
	if _, err := CaptureTrace(cfg, tinyApp, opts); !errors.Is(err, errStop) {
		t.Fatalf("CaptureTrace under firing interrupt: err=%v, want errStop", err)
	}
}

// TestInterruptStopsSearch: the probe ladder checks before every probe.
func TestInterruptStopsSearch(t *testing.T) {
	cfg := arch.TileGx72()
	tr, err := CaptureTrace(cfg, tinyApp, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 5, Interrupt: func() error { return errStop }}
	if _, err := SearchTrace(cfg, core.New(32), tr, opts); !errors.Is(err, errStop) {
		t.Fatalf("SearchTrace under firing interrupt: err=%v, want errStop", err)
	}
}

// TestInterruptPreservesDeterminism: a run whose interrupt never fires is
// byte-identical to a run with no interrupt at all.
func TestInterruptPreservesDeterminism(t *testing.T) {
	cfg := arch.TileGx72()
	plain, err := Run(cfg, core.New(32), tinyApp, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	polled := 0
	watched, err := Run(cfg, core.New(32), tinyApp, Options{Seed: 5, Interrupt: func() error {
		polled++
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if polled == 0 {
		t.Fatal("interrupt hook was never polled")
	}
	if !reflect.DeepEqual(plain, watched) {
		t.Fatalf("interrupt polling perturbed the result\nplain:   %+v\nwatched: %+v", plain, watched)
	}
}
