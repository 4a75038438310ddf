package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/experiments"
	"ironhide/internal/metrics"
)

// raceEnabled is set under the race detector, where the full report run is too
// slow for the test suite.
var raceEnabled bool

var update = flag.Bool("update", false, "re-pin testdata/*.json from the current `ironhide-sim all` output")

// TestGoldenReports runs `ironhide-sim -scale 0.03 -format json all` at the
// CLI's default flags and compares each of the 10 reports byte for byte with
// testdata/<experiment>.json, so any change to a simulated number, a search
// answer or an emitter shows up in tier-1. Re-pin with -update only for an
// intended change, and say in the change log which numbers moved and why.
func TestGoldenReports(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs the full experiment set (~9 s); skipped under -short and -race")
	}
	emit, ext, err := metrics.EmitterFor("json")
	if err != nil {
		t.Fatal(err)
	}
	ec := experiments.Config{Scale: 0.03, Stride: 2, Parallel: runtime.NumCPU(), BaseSeed: 42, SearchWorkers: 1}
	reports, err := build(experimentNames, arch.TileGx72Scaled(12), ec, 96)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(experimentNames) {
		t.Fatalf("got %d reports, want %d", len(reports), len(experimentNames))
	}
	for _, rep := range reports {
		path := filepath.Join("testdata", rep.ReportName()+ext)
		var got bytes.Buffer
		if err := emit(&got, rep); err != nil {
			t.Fatal(err)
		}
		if *update {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (re-pin with -update)", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s differs from %s (re-pin with -update only for an intended change):\n got: %s\nwant: %s", rep.ReportName(), path, got.Bytes(), want)
		}
	}
}
