// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) from the simulator: the normalized completion
// geomeans of Figure 1a, the per-application completion times and
// breakdowns of Figure 6, the cache miss rates of Figure 7, the cluster
// reconfiguration study of Figure 8, the reconstructed system
// configuration of Table I, plus the security-validation and interactivity
// ablations this reproduction adds.
//
// Each experiment is split into a measurement half — a declarative job
// grid executed by internal/runner, aggregated into a typed report struct
// — and a presentation half (reports.go) rendered by the pluggable
// text/CSV/JSON emitters in internal/metrics. Grids run on Config.Parallel
// workers with deterministic per-job seeds, so any worker count produces
// byte-identical reports.
package experiments

import (
	"fmt"
	"math"
	"sort"

	"ironhide/internal/apps"
	"ironhide/internal/arch"
	"ironhide/internal/attack"
	"ironhide/internal/core"
	"ironhide/internal/driver"
	"ironhide/internal/enclave"
	"ironhide/internal/heuristic"
	"ironhide/internal/metrics"
	"ironhide/internal/runner"
	"ironhide/internal/scenario"
	"ironhide/internal/sched"
	"ironhide/internal/trace"
	"ironhide/internal/workload"
)

// Config tunes an experiment run.
type Config struct {
	// Scale multiplies round counts; 1.0 reproduces the default scaled
	// evaluation, smaller values run faster.
	Scale float64
	// Stride coarsens Figure 8's exhaustive Optimal search (default 2).
	Stride int
	// Apps restricts the run to the named applications (nil = all nine).
	Apps []string
	// Parallel is the worker count for the job grids (<= 1 sequential).
	// Results are identical at any worker count.
	Parallel int
	// BaseSeed anchors the deterministic per-job seeds (default 1).
	BaseSeed int64
	// SearchWorkers bounds the worker pool of each exhaustive Optimal
	// search (<= 1 sequential; results identical at any count).
	SearchWorkers int
	// CoTenancy makes the scenario experiment space-share resident secure
	// processes on disjoint sub-gangs of one machine (joint scheduler)
	// instead of time-sharing the secure cluster.
	CoTenancy bool
	// ReconfigPolicy selects the scenario experiment's resize-decision
	// policy ("" = always, the engine's historical behavior). See
	// scenario.ReconfigPolicyNames.
	ReconfigPolicy string
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

func (c Config) stride() int {
	if c.Stride <= 0 {
		return 2
	}
	return c.Stride
}

func (c Config) workers() int {
	if c.Parallel <= 1 {
		return 1
	}
	return c.Parallel
}

func (c Config) seed() int64 {
	if c.BaseSeed == 0 {
		return 1
	}
	return c.BaseSeed
}

func (c Config) searchWorkers() int {
	if c.SearchWorkers <= 1 {
		return 1
	}
	return c.SearchWorkers
}

// captureAll records each selected application once at the run scale (in
// parallel across apps) so a grid can share the trace across its model
// axis.
func (c Config) captureAll(cfg arch.Config, entries []apps.Entry) ([]*trace.Trace, error) {
	return runner.Map(c.workers(), entries, func(i int, entry apps.Entry) (*trace.Trace, error) {
		tr, err := driver.CaptureTrace(cfg, entry.Factory, driver.Options{Scale: c.scale()})
		if err != nil {
			return nil, fmt.Errorf("capture %s: %w", entry.Name, err)
		}
		return tr, nil
	})
}

func (c Config) runner(cfg arch.Config) *runner.Runner {
	return &runner.Runner{Cfg: cfg, Workers: c.workers(), BaseSeed: c.seed()}
}

func (c Config) catalog() []apps.Entry {
	all := apps.Catalog()
	if len(c.Apps) == 0 {
		return all
	}
	var out []apps.Entry
	for _, name := range c.Apps {
		if e, ok := apps.ByName(name); ok {
			out = append(out, e)
		}
	}
	return out
}

// Cell is one (application, model) measurement.
type Cell struct {
	Entry  apps.Entry
	Result *driver.Result
}

// Matrix holds one run of every selected app under every model; Figures
// 1a, 6 and 7 are all views over it.
type Matrix struct {
	Cfg    arch.Config
	Models []string
	Cells  map[string]map[string]*Cell // app -> model -> cell
	Order  []string                    // app presentation order
}

// RunMatrix executes all selected applications under the four models as
// one job grid on Config.Parallel workers. Cell assembly is ordered by
// grid index, so the Matrix is independent of scheduling.
func RunMatrix(cfg arch.Config, ec Config) (*Matrix, error) {
	mx := &Matrix{Cfg: cfg, Cells: map[string]map[string]*Cell{}}
	models := driver.Models()
	for _, m := range models {
		mx.Models = append(mx.Models, m.Name())
	}

	// One capture per application serves the whole model axis: the
	// recorded address stream is model-independent, so the 4 model cells
	// (and the binding searches inside them) all replay the same trace.
	entries := ec.catalog()
	traces, err := ec.captureAll(cfg, entries)
	if err != nil {
		return nil, err
	}

	type slot struct {
		entry apps.Entry
		model string
	}
	var jobs []runner.Job
	var slots []slot
	factories := driver.ModelFactories()
	for ei, entry := range entries {
		mx.Order = append(mx.Order, entry.Name)
		mx.Cells[entry.Name] = map[string]*Cell{}
		for mi, factory := range factories {
			jobs = append(jobs, runner.Job{
				Key:   entry.Name + "/" + models[mi].Name(),
				Model: factory,
				Opts:  driver.Options{Scale: ec.scale(), SearchWorkers: ec.searchWorkers()},
				Trace: traces[ei],
			})
			slots = append(slots, slot{entry: entry, model: models[mi].Name()})
		}
	}

	results, err := ec.runner(cfg).Run(jobs)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		// Strong-isolation invariant: under contiguous row-major splits
		// the bidirectional route chooser must never fail containment, so
		// any violation in any cell is a simulator bug, not a measurement.
		if r.Res.RouteViolations != 0 {
			return nil, fmt.Errorf("experiments: %s recorded %d route violations; contained routing must never fail under contiguous splits",
				jobs[i].Key, r.Res.RouteViolations)
		}
		mx.Cells[slots[i].entry.Name][slots[i].model] = &Cell{Entry: slots[i].entry, Result: r.Res}
	}
	return mx, nil
}

// completionsOf collects completion times of one model over apps of the
// given classes, in catalog order.
func (mx *Matrix) completionsOf(model string, classes ...workload.Class) []float64 {
	var out []float64
	for _, app := range mx.Order {
		cell := mx.Cells[app][model]
		if len(classes) > 0 {
			match := false
			for _, c := range classes {
				if cell.Entry.Class == c {
					match = true
				}
			}
			if !match {
				continue
			}
		}
		out = append(out, float64(cell.Result.CompletionCycles))
	}
	return out
}

// BuildFig1a aggregates the normalized geometric-mean completion times of
// the secure-processor architectures over the insecure baseline (paper
// Figure 1a: SGX ~1.33x, MI6 ~2.25x, IRONHIDE between them).
func (mx *Matrix) BuildFig1a() *Fig1aReport {
	rep := &Fig1aReport{
		Name:  "fig1a",
		Title: "Figure 1(a): normalized geomean completion time (insecure baseline = 1.0)",
	}
	base := mx.completionsOf("Insecure")
	paper := map[string]string{"Insecure": "1.00", "SGX": "~1.33", "MI6": "~2.25", "IRONHIDE": "~1.1 (20% better than SGX)"}
	for _, model := range mx.Models {
		norm := metrics.Normalize(mx.completionsOf(model), base)
		rep.Rows = append(rep.Rows, Fig1aRow{Model: model, Normalized: metrics.Geomean(norm), Paper: paper[model]})
	}
	return rep
}

// BuildFig6 aggregates per-application completion times with the paper's
// breakdown — process execution versus enclave entry/exit (SGX), purging
// (MI6) and one-time reconfiguration (IRONHIDE) — plus the secure-cluster
// core counts (the markers on Figure 6), the user/OS/overall geomean
// speedups, and the MI6 purge analysis.
func (mx *Matrix) BuildFig6() *Fig6Report {
	rep := &Fig6Report{
		Name:  "fig6",
		Title: "Figure 6: completion times (cycles, scaled run) and overhead breakdown",
	}
	for _, app := range mx.Order {
		for _, model := range mx.Models {
			r := mx.Cells[app][model].Result
			rep.Rows = append(rep.Rows, Fig6Row{
				App: app, Model: model,
				CompletionCycles: r.CompletionCycles,
				ComputeCycles:    r.ComputeCycles(),
				EntryExitCycles:  r.EntryExitCycles,
				PurgeCycles:      r.PurgeCycles,
				ReconfigCycles:   r.ReconfigCycles,
				SecureCores:      r.SecureCores,
			})
		}
	}

	scopes := []struct {
		name    string
		classes []workload.Class
		paper   string
	}{
		{"user-level", []workload.Class{workload.User}, "~1.32x"},
		{"OS-level", []workload.Class{workload.OSLevel}, "~3.1x"},
		{"all", nil, "~2.1x"},
	}
	for _, s := range scopes {
		mi6 := mx.completionsOf("MI6", s.classes...)
		sgx := mx.completionsOf("SGX", s.classes...)
		ih := mx.completionsOf("IRONHIDE", s.classes...)
		rep.Speedups = append(rep.Speedups, SpeedupRow{
			Scope:         s.name,
			MI6VsIronhide: metrics.Geomean(metrics.Normalize(mi6, ih)),
			SGXVsIronhide: metrics.Geomean(metrics.Normalize(sgx, ih)),
			MI6VsSGX:      metrics.Geomean(metrics.Normalize(mi6, sgx)),
			Paper:         s.paper,
		})
	}

	// Purge share of MI6 completion (the paper reports ~47% on average,
	// ~0.19 ms per interaction event) and the purge-component improvement.
	var mi6Purge, mi6Total, ihPurgeLike float64
	var events int64
	for _, app := range mx.Order {
		r := mx.Cells[app]["MI6"].Result
		mi6Purge += float64(r.PurgeCycles)
		mi6Total += float64(r.CompletionCycles)
		events += r.Interactions
		ih := mx.Cells[app]["IRONHIDE"].Result
		ihPurgeLike += float64(ih.ReconfigCycles)
	}
	dil := mx.Cfg.ProtocolDilation
	if dil < 1 {
		dil = 1
	}
	rep.ProtocolDilation = dil
	if mi6Total > 0 {
		rep.MI6PurgeShare = mi6Purge / mi6Total
	}
	if events > 0 {
		rep.MI6PurgePerEventCyc = int64(mi6Purge/float64(events)) * dil
	}
	if ihPurgeLike > 0 {
		rep.PurgeImprovementMI6 = mi6Purge / ihPurgeLike
	}
	return rep
}

// BuildFig7 aggregates the private L1 and shared L2 miss rates of MI6 and
// IRONHIDE per application (paper Figure 7: L1 improves up to 5.9x, L2 up
// to 2x, with <TC, GRAPH> and <LIGHTTPD, OS> as the L2 exceptions).
// Degenerate (non-positive) samples are skipped from the geomeans and
// counted in Skipped instead of aborting the sweep.
func (mx *Matrix) BuildFig7() *Fig7Report {
	rep := &Fig7Report{
		Name:  "fig7",
		Title: "Figure 7: private L1 (a) and shared L2 (b) miss rates, MI6 vs IRONHIDE",
	}
	// The geomean gain must compare the same app set on both sides, so a
	// degenerate (non-positive) rate drops its whole app pair from that
	// cache level's geomeans, counted in Skipped.
	var l1m, l1i, l2m, l2i []float64
	for _, app := range mx.Order {
		mi6 := mx.Cells[app]["MI6"].Result
		ih := mx.Cells[app]["IRONHIDE"].Result
		rep.Rows = append(rep.Rows, Fig7Row{
			App:        app,
			L1MI6:      mi6.L1MissRate(),
			L1Ironhide: ih.L1MissRate(),
			L1Gain:     safeRatio(mi6.L1MissRate(), ih.L1MissRate()),
			L2MI6:      mi6.L2MissRate(),
			L2Ironhide: ih.L2MissRate(),
			L2Gain:     safeRatio(mi6.L2MissRate(), ih.L2MissRate()),
		})
		if mi6.L1MissRate() > 0 && ih.L1MissRate() > 0 {
			l1m = append(l1m, mi6.L1MissRate())
			l1i = append(l1i, ih.L1MissRate())
		} else {
			rep.Skipped++
		}
		if mi6.L2MissRate() > 0 && ih.L2MissRate() > 0 {
			l2m = append(l2m, mi6.L2MissRate())
			l2i = append(l2i, ih.L2MissRate())
		} else {
			rep.Skipped++
		}
	}
	gl1m, gl1i := metrics.Geomean(l1m), metrics.Geomean(l1i)
	gl2m, gl2i := metrics.Geomean(l2m), metrics.Geomean(l2i)
	rep.Geomean = Fig7Row{
		L1MI6: gl1m, L1Ironhide: gl1i, L1Gain: safeRatio(gl1m, gl1i),
		L2MI6: gl2m, L2Ironhide: gl2i, L2Gain: safeRatio(gl2m, gl2i),
	}
	return rep
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fig8Entry is one application's share of the Figure 8 study: the MI6
// baseline, the gradient Heuristic, the overhead-free Optimal, and the
// fixed variations around Optimal, all measured with one exhaustive
// search. Entries are independent, so BuildFig8 runs them concurrently.
type fig8Entry struct {
	mi6, heuristic, optimal float64
	varied                  []float64 // one per variation, in order
}

// BuildFig8 reproduces the cluster-reconfiguration study: geomean
// completion for the MI6 baseline, IRONHIDE's gradient Heuristic, the
// overhead-free Optimal, and fixed ±5/±15/±25% decision variations around
// Optimal.
func BuildFig8(cfg arch.Config, ec Config) (*Fig8Report, error) {
	entries := ec.catalog()
	variations := []float64{-0.25, -0.15, -0.05, +0.05, +0.15, +0.25}

	measured, err := runner.Map(ec.workers(), entries, func(i int, entry apps.Entry) (fig8Entry, error) {
		var out fig8Entry
		opts := func() driver.Options {
			return driver.Options{
				Scale: ec.scale(), Seed: ec.seed() + int64(i),
				SearchWorkers: ec.searchWorkers(),
			}
		}

		// One capture serves the whole study for this application: the MI6
		// baseline, the heuristic search, the exhaustive Optimal search,
		// and every fixed-variation run all replay the same stream.
		tr, err := driver.CaptureTrace(cfg, entry.Factory, driver.Options{Scale: ec.scale()})
		if err != nil {
			return out, err
		}
		run := func(model enclave.Model, o driver.Options) (*driver.Result, error) {
			return driver.RunTrace(cfg, model, tr, o)
		}

		// MI6 baseline.
		mi6, err := run(enclave.MulticoreMI6{}, opts())
		if err != nil {
			return out, err
		}
		out.mi6 = float64(mi6.CompletionCycles)

		// Heuristic (the real IRONHIDE flow).
		h, err := run(core.New(32), opts())
		if err != nil {
			return out, err
		}
		out.heuristic = float64(h.CompletionCycles)

		// One exhaustive search shared by Optimal and the variations.
		sOpts := opts()
		sOpts.Optimal, sOpts.OptimalStride = true, ec.stride()
		opt, err := driver.SearchTrace(cfg, core.New(32), tr, sOpts)
		if err != nil {
			return out, err
		}
		oOpts := opts()
		oOpts.FixedSecureCores = opt.SecureCores
		oOpts.WaiveReconfig = opt.WaiveReconfig
		o, err := run(core.New(32), oOpts)
		if err != nil {
			return out, err
		}
		out.optimal = float64(o.CompletionCycles)

		for _, v := range variations {
			vOpts := opts()
			vOpts.FixedSecureCores = heuristic.Vary(opt.SecureCores, v, cfg.Cores(), 1, cfg.Cores()-1)
			r, err := run(core.New(32), vOpts)
			if err != nil {
				return out, err
			}
			out.varied = append(out.varied, float64(r.CompletionCycles))
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	labels := []string{"MI6", "Heuristic"}
	for _, v := range variations {
		labels = append(labels, fmt.Sprintf("%+.0f%%", v*100))
	}
	labels = append(labels, "Optimal")

	acc := map[string][]float64{}
	for _, m := range measured {
		acc["MI6"] = append(acc["MI6"], m.mi6)
		acc["Heuristic"] = append(acc["Heuristic"], m.heuristic)
		acc["Optimal"] = append(acc["Optimal"], m.optimal)
		for vi, v := range variations {
			label := fmt.Sprintf("%+.0f%%", v*100)
			acc[label] = append(acc[label], m.varied[vi])
		}
	}

	rep := &Fig8Report{
		Name:  "fig8",
		Title: "Figure 8: core re-allocation predictor study (geomean completion, MI6 = 100)",
		Note:  "paper: Heuristic ~2.1x over MI6, Optimal ~2.3x; Heuristic within the ±5% variations",
	}
	mi6G := metrics.Geomean(acc["MI6"])
	for _, label := range labels {
		g := metrics.Geomean(acc[label])
		rep.Rows = append(rep.Rows, Fig8Row{
			Label:      label,
			Geomean:    g,
			Normalized: 100 * safeRatio(g, mi6G),
			Speedup:    safeRatio(mi6G, g),
		})
	}
	return rep, nil
}

// BuildTable1 reconstructs the system-configuration table (the paper's
// Table I is absent from the available source text; values are rebuilt
// from in-text references and public Tile-Gx72 documentation).
func BuildTable1(cfg arch.Config) *Table1Report {
	rep := &Table1Report{
		Name:  "table1",
		Title: "Table I (reconstructed): simulated Tile-Gx72 system configuration",
	}
	add := func(p, v string) { rep.Rows = append(rep.Rows, Table1Row{Parameter: p, Value: v}) }
	add("cores (used)", fmt.Sprintf("%d on a %dx%d mesh", cfg.Cores(), cfg.MeshWidth, cfg.MeshHeight))
	add("clock", fmt.Sprintf("%d MHz", cfg.ClockHz/1_000_000))
	add("L1 data cache", fmt.Sprintf("%d KB, %d-way, %d B lines, %d-cycle hit", cfg.L1Size>>10, cfg.L1Ways, cfg.LineSize, cfg.L1HitLat))
	add("TLB", fmt.Sprintf("%d entries, %d-way, %d KB pages, %d-cycle walk", cfg.TLBEntries, cfg.TLBWays, cfg.PageSize>>10, cfg.PageWalkLat))
	add("shared L2", fmt.Sprintf("%d KB slice per core (%d MB total), %d-way, %d-cycle hit", cfg.L2SliceSize>>10, cfg.L2SliceSize*cfg.Cores()>>20, cfg.L2Ways, cfg.L2HitLat))
	add("on-chip network", fmt.Sprintf("2-D mesh, X-Y/Y-X dimension-ordered, %d-cycle hop", cfg.HopLat))
	add("memory controllers", fmt.Sprintf("%d, %d-entry queues, %d-cycle DRAM access", cfg.MemControllers, cfg.MCQueueDepth, cfg.DRAMLat))
	add("DRAM regions", fmt.Sprintf("%d, statically distributable across domains", cfg.DRAMRegions))
	add("SGX entry/exit", cfg.CyclesToDuration(cfg.SGXEntryExitLat).String())
	return rep
}

// SweepPoint is one interactivity measurement.
type SweepPoint struct {
	App        string  `json:"app"`
	Inputs     int     `json:"inputs"`
	Model      string  `json:"model"`
	Completion int64   `json:"completion_cycles"`
	PurgeShare float64 `json:"purge_share"`
}

// BuildSweep runs the input-scale ablation (paper Section IV-B runs each
// user app at 500..50K inputs): completion and MI6 purge share versus the
// number of interaction rounds, as one (app × rounds × model) job grid.
// Each (app, rounds) point is captured once and shared by both models.
func BuildSweep(cfg arch.Config, ec Config, rounds []int) (*SweepReport, error) {
	entries := ec.catalog()
	if len(entries) > 2 {
		entries = entries[:2]
	}
	sweepModels := []func() enclave.Model{
		func() enclave.Model { return enclave.MulticoreMI6{} },
		func() enclave.Model { return core.New(32) },
	}

	type point struct {
		entry apps.Entry
		n     int
		scale float64
	}
	var points []point
	for _, entry := range entries {
		base := entry.Factory()
		for _, n := range rounds {
			points = append(points, point{entry: entry, n: n, scale: float64(n) / float64(base.Rounds)})
		}
	}
	traces, err := runner.Map(ec.workers(), points, func(_ int, p point) (*trace.Trace, error) {
		tr, err := driver.CaptureTrace(cfg, p.entry.Factory, driver.Options{Scale: p.scale})
		if err != nil {
			return nil, fmt.Errorf("capture %s/%d: %w", p.entry.Name, p.n, err)
		}
		return tr, nil
	})
	if err != nil {
		return nil, err
	}

	var jobs []runner.Job
	var appOf []string
	for pi, p := range points {
		for _, model := range sweepModels {
			jobs = append(jobs, runner.Job{
				Key:   fmt.Sprintf("%s/%d/%s", p.entry.Name, p.n, model().Name()),
				Model: model,
				Opts:  driver.Options{Scale: p.scale},
				Trace: traces[pi],
			})
			appOf = append(appOf, p.entry.Name)
		}
	}

	results, err := ec.runner(cfg).Run(jobs)
	if err != nil {
		return nil, err
	}
	rep := &SweepReport{
		Name:  "sweep",
		Title: "Interactivity sweep: purge overhead vs input count (MI6 vs IRONHIDE)",
	}
	for i, r := range results {
		res := r.Res
		share := float64(res.PurgeCycles+res.ReconfigCycles) / float64(res.CompletionCycles)
		rep.Points = append(rep.Points, SweepPoint{
			App: appOf[i], Inputs: res.Rounds, Model: res.Model,
			Completion: res.CompletionCycles, PurgeShare: share,
		})
	}
	return rep, nil
}

// BuildScenario runs the multi-tenant dynamic-reconfiguration timeline
// (internal/scenario): a seeded schedule of app arrivals, departures and
// load shifts over one shared machine, with kernel-budgeted cluster
// resizes charging the real purge costs. The timeline derives from
// Config.BaseSeed; Config.Apps restricts the tenant pool.
func BuildScenario(cfg arch.Config, ec Config) (*scenario.Report, error) {
	spec, err := ec.scenarioSpec()
	if err != nil {
		return nil, err
	}
	return scenario.Run(cfg, spec, scenario.Options{Workers: ec.workers()})
}

// scenarioSpec derives the scenario experiment's Spec from the config.
func (c Config) scenarioSpec() (scenario.Spec, error) {
	spec := scenario.Spec{Seed: c.seed(), Scale: c.scale(), Events: 8,
		CoTenancy: c.CoTenancy, ReconfigPolicy: c.ReconfigPolicy}
	// Config.Apps carries paper labels; the scenario pool wants the
	// file-safe aliases. Unknown names fail loudly — a silently
	// substituted default pool would report on the wrong tenants.
	for _, name := range c.Apps {
		e, ok := apps.ByName(name)
		if !ok {
			return scenario.Spec{}, fmt.Errorf("experiments: unknown application %q", name)
		}
		spec.Apps = append(spec.Apps, e.Alias)
	}
	return spec, nil
}

// BuildPolicyCmp runs the identical scenario timeline once per
// reconfiguration policy and compares them head-to-head: total completion,
// purge overhead, how many resizes each policy deferred or the kernel
// denied, and the leakage bound — every boundary move reveals at most the
// new boundary position, so a run's resize-pattern leakage is bounded by
// reconfigs × log2(cores) bits (the Shield Bash framing: defensive
// reactions are themselves a side channel, and a policy that defers
// resizes also shrinks what the resize pattern can say). Rows are ranked
// by total completion (ties by name), deterministically for a given seed.
func BuildPolicyCmp(cfg arch.Config, ec Config) (*PolicyCmpReport, error) {
	names := scenario.ReconfigPolicyNames()
	rows, err := runner.Map(ec.workers(), names, func(_ int, policy string) (PolicyCmpRow, error) {
		pc := ec
		pc.ReconfigPolicy = policy
		spec, err := pc.scenarioSpec()
		if err != nil {
			return PolicyCmpRow{}, err
		}
		// Policies run sequentially inside runner.Map's fan-out; each run's
		// own phase replay stays single-worker to keep the total fan-out at
		// Config.Parallel. Reports are deterministic at any worker split.
		rep, err := scenario.Run(cfg, spec, scenario.Options{Workers: 1})
		if err != nil {
			return PolicyCmpRow{}, err
		}
		row := PolicyCmpRow{
			Policy:           policy,
			CompletionCycles: rep.TotalCycles,
			PurgeCycles:      rep.TotalPurgeCycles,
			Reconfigs:        rep.Reconfigs,
			Denied:           rep.Denied,
			Deferred:         rep.Deferred,
			LeakageBoundBits: float64(rep.Reconfigs) * math.Log2(float64(cfg.Cores())),
		}
		if rep.TotalCycles > 0 {
			row.PurgeShare = float64(rep.TotalPurgeCycles) / float64(rep.TotalCycles)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(rows, func(a, b int) bool {
		if rows[a].CompletionCycles != rows[b].CompletionCycles {
			return rows[a].CompletionCycles < rows[b].CompletionCycles
		}
		return rows[a].Policy < rows[b].Policy
	})
	for i := range rows {
		rows[i].Rank = i + 1
	}
	return &PolicyCmpReport{
		Name:  "policycmp",
		Title: "Reconfiguration-policy comparison: completion vs purge overhead vs leakage bound",
		Seed:  ec.seed(),
		Rows:  rows,
	}, nil
}

// BuildCoTenancy runs the joint-scheduler policy study: the first few
// selected applications become mutually distrusting tenants that want the
// machine simultaneously, every packing policy partitions the clusters
// between them, and each partition is scored by co-running all tenants'
// traces at once (space-sharing, not time-sharing).
func BuildCoTenancy(cfg arch.Config, ec Config) (*sched.Report, error) {
	entries := ec.catalog()
	if len(entries) > 3 {
		entries = entries[:3]
	}
	if len(entries) < 2 {
		return nil, fmt.Errorf("experiments: co-tenancy needs at least two applications, got %d", len(entries))
	}
	traces, err := ec.captureAll(cfg, entries)
	if err != nil {
		return nil, err
	}
	tenants := make([]sched.Tenant, len(entries))
	for i, entry := range entries {
		tenants[i] = sched.Tenant{Name: entry.Alias, Trace: traces[i]}
	}
	return sched.JointSearch(cfg, tenants, sched.Options{
		Scale:   ec.scale(),
		Workers: ec.workers(),
		Seed:    ec.seed(),
	})
}

// BuildAttack mounts the Prime+Probe covert channel under every model
// (one worker per model) and reports the recovered-bit statistics; the
// channel's secret bit string derives from Config.BaseSeed.
func BuildAttack(ec Config, trials int) (*AttackReport, error) {
	models := driver.Models()
	rows, err := runner.Map(ec.workers(), models, func(i int, m enclave.Model) (AttackRow, error) {
		res, err := attack.CovertChannel(m, trials, ec.seed())
		if err != nil {
			return AttackRow{}, err
		}
		return AttackRow{
			Model:      res.Model,
			Correct:    res.Correct,
			Trials:     res.Trials,
			Accuracy:   res.Accuracy(),
			Collisions: res.Collisions,
			Leaks:      res.Leaks(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &AttackReport{
		Name:  "attack",
		Title: "Prime+Probe covert-channel validation (extension)",
		Rows:  rows,
	}, nil
}
