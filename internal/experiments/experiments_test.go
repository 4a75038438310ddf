package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/metrics"
	"ironhide/internal/workload"
)

// fast runs two representative apps (one user-level, one OS-level) at a
// small scale; the full nine-app matrix is exercised by the CLI and the
// benchmarks.
func fast() Config {
	return Config{Scale: 0.04, Apps: []string{"<AES, QUERY>", "<MEMCACHED, OS>"}, Stride: 16}
}

func cfg() arch.Config { return arch.TileGx72Scaled(12) }

// text renders a report the way `ironhide-sim -format text` does.
func text(t *testing.T, rep metrics.Tabular) string {
	t.Helper()
	var buf bytes.Buffer
	if err := metrics.EmitText(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestMatrixAndFigures(t *testing.T) {
	mx, err := RunMatrix(cfg(), fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(mx.Order) != 2 {
		t.Fatalf("matrix has %d apps", len(mx.Order))
	}
	for _, app := range mx.Order {
		for _, model := range mx.Models {
			cell := mx.Cells[app][model]
			if cell == nil || cell.Result.CompletionCycles <= 0 {
				t.Fatalf("missing cell %s/%s", app, model)
			}
			if cell.Result.RouteViolations != 0 {
				t.Fatalf("%s/%s: route violations", app, model)
			}
		}
		// The paper's central ordering: IRONHIDE beats MI6 on every app.
		if mx.Cells[app]["IRONHIDE"].Result.CompletionCycles >= mx.Cells[app]["MI6"].Result.CompletionCycles {
			t.Fatalf("%s: IRONHIDE not faster than MI6", app)
		}
	}

	out := text(t, mx.BuildFig1a())
	if !strings.Contains(out, "IRONHIDE") || !strings.Contains(out, "normalized") {
		t.Fatalf("fig1a output malformed:\n%s", out)
	}

	out = text(t, mx.BuildFig6())
	for _, want := range []string{"purge", "reconfig", "MI6/IRONHIDE", "per interaction event"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig6 output missing %q:\n%s", want, out)
		}
	}

	out = text(t, mx.BuildFig7())
	if !strings.Contains(out, "L1 MI6") || !strings.Contains(out, "geomean") {
		t.Fatalf("fig7 output malformed:\n%s", out)
	}
}

func TestFig8SmallScale(t *testing.T) {
	ec := Config{Scale: 0.03, Apps: []string{"<AES, QUERY>"}, Stride: 20}
	rep, err := BuildFig8(cfg(), ec)
	if err != nil {
		t.Fatal(err)
	}
	out := text(t, rep)
	for _, want := range []string{"MI6", "Heuristic", "Optimal", "+5%", "-25%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig8 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable1(t *testing.T) {
	out := text(t, BuildTable1(arch.TileGx72()))
	for _, want := range []string{"8x8 mesh", "32 KB", "256 KB", "X-Y/Y-X", "DRAM regions"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 missing %q:\n%s", want, out)
		}
	}
}

func TestSweep(t *testing.T) {
	ec := Config{Scale: 1, Apps: []string{"<MEMCACHED, OS>"}}
	rep, err := BuildSweep(cfg(), ec, []int{20, 40})
	if err != nil {
		t.Fatal(err)
	}
	text(t, rep)
	points := rep.Points
	if len(points) != 4 { // 2 round counts x 2 models
		t.Fatalf("%d sweep points", len(points))
	}
	// MI6's purge share must dwarf IRONHIDE's at every point.
	for i := 0; i < len(points); i += 2 {
		mi6, ih := points[i], points[i+1]
		if mi6.Model != "MI6" || ih.Model != "IRONHIDE" {
			t.Fatalf("point order changed: %+v", points)
		}
		if mi6.PurgeShare <= ih.PurgeShare {
			t.Fatalf("MI6 purge share %.2f not above IRONHIDE %.2f", mi6.PurgeShare, ih.PurgeShare)
		}
	}
}

// The tentpole acceptance property: a parallel sweep renders reports
// byte-identical to a sequential one.
func TestParallelDeterminism(t *testing.T) {
	render := func(parallel int) (fig1a, fig7 string) {
		ec := fast()
		ec.Parallel = parallel
		mx, err := RunMatrix(cfg(), ec)
		if err != nil {
			t.Fatal(err)
		}
		return text(t, mx.BuildFig1a()), text(t, mx.BuildFig7())
	}
	f1Seq, f7Seq := render(1)
	f1Par, f7Par := render(8)
	if f1Seq != f1Par {
		t.Fatalf("fig1a diverges between -parallel 1 and 8:\n--- seq ---\n%s--- par ---\n%s", f1Seq, f1Par)
	}
	if f7Seq != f7Par {
		t.Fatalf("fig7 diverges between -parallel 1 and 8:\n--- seq ---\n%s--- par ---\n%s", f7Seq, f7Par)
	}
}

// Every experiment report must emit through all three formats, and the
// JSON form must stay machine-readable.
func TestReportsEmitAllFormats(t *testing.T) {
	ec := fast()
	ec.Parallel = 4
	mx, err := RunMatrix(cfg(), ec)
	if err != nil {
		t.Fatal(err)
	}
	att, err := BuildAttack(Config{Parallel: 4, BaseSeed: 42}, 16)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := BuildSweep(cfg(), Config{Scale: 1, Apps: []string{"<MEMCACHED, OS>"}, Parallel: 4}, []int{20})
	if err != nil {
		t.Fatal(err)
	}
	cot, err := BuildCoTenancy(cfg(), ec)
	if err != nil {
		t.Fatal(err)
	}
	reports := []metrics.Tabular{
		mx.BuildFig1a(), mx.BuildFig6(), mx.BuildFig7(),
		BuildTable1(cfg()), att, sweep, cot,
	}
	for _, rep := range reports {
		if rep.ReportName() == "" || rep.ReportTitle() == "" {
			t.Fatalf("%T lacks name/title", rep)
		}
		for _, format := range metrics.Formats() {
			emit, _, err := metrics.EmitterFor(format)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := emit(&buf, rep); err != nil {
				t.Fatalf("%s/%s: %v", rep.ReportName(), format, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s/%s: empty output", rep.ReportName(), format)
			}
			if format == "json" {
				var decoded map[string]any
				if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
					t.Fatalf("%s json invalid: %v", rep.ReportName(), err)
				}
				if decoded["name"] != rep.ReportName() {
					t.Fatalf("%s json name = %v", rep.ReportName(), decoded["name"])
				}
			}
		}
	}
}

// The co-tenancy experiment ranks every packing policy and stays
// byte-identical across worker counts.
func TestCoTenancyExperiment(t *testing.T) {
	run := func(parallel int) []byte {
		ec := fast()
		ec.Parallel = parallel
		rep, err := BuildCoTenancy(cfg(), ec)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Policies) != 3 || rep.Best != rep.Policies[0].Policy {
			t.Fatalf("implausible ranking: best %q over %d policies", rep.Best, len(rep.Policies))
		}
		for _, p := range rep.Policies {
			if len(p.Tenants) != 2 || p.Throughput <= 0 || p.Fairness <= 0 || p.Fairness > 1+1e-9 {
				t.Fatalf("policy %s: implausible score %+v", p.Policy, p)
			}
			for _, ten := range p.Tenants {
				if ten.SoloCycles <= 0 || ten.CoCycles <= 0 || ten.SecureCores <= 0 || ten.InsecureCores <= 0 {
					t.Fatalf("policy %s tenant %s: empty share %+v", p.Policy, ten.App, ten)
				}
			}
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if seq, par := run(1), run(8); !bytes.Equal(seq, par) {
		t.Fatalf("cotenancy diverges between -parallel 1 and 8:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
}

func TestConfigCatalogFiltering(t *testing.T) {
	if got := (Config{}).catalog(); len(got) != 9 {
		t.Fatalf("default catalog has %d apps, want 9", len(got))
	}
	ec := Config{Apps: []string{"<PR, GRAPH>", "bogus"}}
	got := ec.catalog()
	if len(got) != 1 || got[0].Name != "<PR, GRAPH>" {
		t.Fatalf("filtered catalog = %v", got)
	}
}

func TestClassFilters(t *testing.T) {
	mx, err := RunMatrix(cfg(), fast())
	if err != nil {
		t.Fatal(err)
	}
	user := mx.completionsOf("MI6", workload.User)
	osl := mx.completionsOf("MI6", workload.OSLevel)
	all := mx.completionsOf("MI6")
	if len(user)+len(osl) != len(all) || len(user) != 1 || len(osl) != 1 {
		t.Fatalf("class filtering broken: %d user, %d os, %d all", len(user), len(osl), len(all))
	}
}

// The scenario timeline emits byte-identical JSON at any worker count,
// time-shared and with co-tenancy.
func TestScenarioParallelDeterminism(t *testing.T) {
	for _, coTenancy := range []bool{false, true} {
		run := func(parallel int) []byte {
			ec := fast()
			ec.Parallel = parallel
			ec.CoTenancy = coTenancy
			rep, err := BuildScenario(cfg(), ec)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Phases) == 0 {
				t.Fatal("scenario ran no phases")
			}
			var buf bytes.Buffer
			if err := metrics.EmitJSON(&buf, rep); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		if seq, par := run(1), run(4); !bytes.Equal(seq, par) {
			t.Fatalf("scenario (co-tenancy %v) diverges between -parallel 1 and 4:\n--- seq ---\n%s\n--- par ---\n%s", coTenancy, seq, par)
		}
	}
}
