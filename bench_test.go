// Package ironhide's benchmark harness regenerates every table and figure
// of the paper's evaluation as testing.B benchmarks (scaled down so a
// full -bench=. sweep stays tractable), plus the ablation benches
// DESIGN.md calls out. Key series are emitted through b.ReportMetric:
//
//	BenchmarkTable1Machine      Table I substrate (machine + access path)
//	BenchmarkFig1a              Figure 1a normalized geomeans
//	BenchmarkFig6Completion     Figure 6 completion/breakdown matrix
//	BenchmarkFig7MissRates      Figure 7 L1/L2 miss rates
//	BenchmarkFig8Heuristic      Figure 8 reconfiguration study
//	BenchmarkAttackChannel      covert-channel validation
//	BenchmarkInteractivitySweep input-scale ablation
//	BenchmarkHomingPolicy       hash-for-home vs local homing ablation
//	BenchmarkRoutingIsolation   X-Y vs bidirectional routing ablation
//	BenchmarkPurge              strong-isolation purge cost
//	BenchmarkReconfigBudget     dynamic-hardware-isolation event cost
//	BenchmarkScenarioPhase      multi-tenant timeline engine, per phase
//	BenchmarkScenarioStream     the same timeline with a streaming sink
//	BenchmarkCoTenantReplay     space-shared co-run on disjoint sub-gangs
//	BenchmarkJointSearch        joint-scheduler policy search end to end
//	BenchmarkGridSequential     app×model grid on 1 runner worker
//	BenchmarkGridParallel       the same grid on all host cores
//
// Every matrix benchmark goes through internal/runner — the same
// orchestration path cmd/ironhide-sim uses — so the grid benchmarks
// measure the real parallel speedup of a sweep.
package ironhide

import (
	"io"
	"testing"
	"time"

	"ironhide/internal/apps"
	"ironhide/internal/arch"
	"ironhide/internal/attack"
	"ironhide/internal/cache"
	"ironhide/internal/core"
	"ironhide/internal/driver"
	"ironhide/internal/enclave"
	"ironhide/internal/experiments"
	"ironhide/internal/metrics"
	"ironhide/internal/noc"
	"ironhide/internal/runner"
	"ironhide/internal/scenario"
	"ironhide/internal/sched"
	"ironhide/internal/sim"
	"ironhide/internal/trace"
)

func benchCfg() arch.Config { return arch.TileGx72Scaled(12) }

// benchEC keeps a -bench=. sweep tractable: two representative apps (one
// per interactivity class) at a small scale, gridded across all host
// cores. Use cmd/ironhide-sim for the full nine-app evaluation.
func benchEC() experiments.Config {
	return experiments.Config{
		Scale:    0.04,
		Apps:     []string{"<AES, QUERY>", "<MEMCACHED, OS>"},
		Stride:   16,
		Parallel: runner.DefaultWorkers(),
	}
}

func BenchmarkTable1Machine(b *testing.B) {
	cfg := arch.TileGx72()
	for i := 0; i < b.N; i++ {
		m, err := sim.NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		buf := m.NewSpace("bench", arch.Insecure).Alloc("a", 1<<20)
		var lat int64
		for off := 0; off < buf.Size; off += cfg.LineSize {
			lat += m.Access(0, buf.Addr(off), false, arch.Insecure, lat)
		}
		b.ReportMetric(float64(lat)/float64(buf.Size/cfg.LineSize), "cycles/access")
	}
}

// BenchmarkAccessHotPath measures one steady-state Machine.Access on the
// full 64-core machine with routing isolation active — the operation every
// simulated memory reference pays. Run with -benchmem: the allocs/op
// column is the zero-allocation claim (also gated by TestAccessZeroAlloc).
func BenchmarkAccessHotPath(b *testing.B) {
	build := func(b *testing.B) (*sim.Machine, sim.Buffer) {
		cfg := arch.TileGx72()
		m, err := sim.NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Part.AssignDomains(0b0011); err != nil {
			b.Fatal(err)
		}
		split, err := noc.NewSplit(32, cfg)
		if err != nil {
			b.Fatal(err)
		}
		m.SetSplit(split, true)
		// Home the whole window on slice 0 so a cyclic walk of twice the
		// slice capacity misses L2 on every steady-state access.
		m.SetHomePolicy(arch.Secure, cache.NewLocalHome())
		m.SetSlices(arch.Secure, []cache.SliceID{0})
		buf := m.NewSpace("bench", arch.Secure).Alloc("a", 2*cfg.L2SliceSize)
		return m, buf
	}
	b.Run("l1-hit", func(b *testing.B) {
		m, buf := build(b)
		addr := buf.Addr(0)
		m.Access(0, addr, false, arch.Secure, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Access(0, addr, false, arch.Secure, int64(i))
		}
	})
	b.Run("l2-miss", func(b *testing.B) {
		m, buf := build(b)
		line := m.Cfg.LineSize
		for off := 0; off < buf.Size; off += line {
			m.Access(0, buf.Addr(off), true, arch.Secure, 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		off := 0
		for i := 0; i < b.N; i++ {
			m.Access(0, buf.Addr(off), true, arch.Secure, int64(i))
			off = (off + line) % buf.Size
		}
	})
}

// BenchmarkSearchProbe measures one heuristic binding-search probe — the
// operation the gradient heuristic runs ~10 times and the Optimal oracle
// 63 times per application — live (fresh app instance + full payload
// execution) versus replayed from a shared capture. The replay/live ratio
// is the record-once/replay-many speedup; the capture sub-benchmark costs
// the one-time recording itself.
//
// Live and capture execute different round counts (a probe runs one
// profile window; a capture records the whole run so every later probe and
// the measured run can replay it), so the sub-benchmarks also report
// ns/round — that is the per-round recording overhead the recorder fast
// path drives below live execution.
func BenchmarkSearchProbe(b *testing.B) {
	cfg := arch.TileGx72()
	entry, ok := apps.ByName("<AES, QUERY>")
	if !ok {
		b.Fatal("catalog missing app")
	}
	opts := driver.Options{Scale: 0.2}
	const candidate = 24
	b.Run("live", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if _, err := driver.Profile(cfg, core.New(32), entry.Factory, opts, candidate); err != nil {
				b.Fatal(err)
			}
		}
		pr := entry.Factory().Scaled(0.2).ProfileRounds
		rounds := pr/4 + pr // warmup + measured, mirroring profileLen
		b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*rounds), "ns/round")
	})
	b.Run("capture", func(b *testing.B) {
		start := time.Now()
		rounds := 0
		for i := 0; i < b.N; i++ {
			tr, err := driver.CaptureTrace(cfg, entry.Factory, opts)
			if err != nil {
				b.Fatal(err)
			}
			rounds = len(tr.Ins.Rounds)
		}
		b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*rounds), "ns/round")
	})
	b.Run("replay", func(b *testing.B) {
		tr, err := driver.CaptureTrace(cfg, entry.Factory, opts)
		if err != nil {
			b.Fatal(err)
		}
		// Warm the one-time decode cache; probes share it.
		if _, err := driver.ProfileTrace(cfg, core.New(32), tr, opts, candidate); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := driver.ProfileTrace(cfg, core.New(32), tr, opts, candidate); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOptimalOracle times a full end-to-end Optimal-oracle run —
// exhaustive search plus the measured run — with live payload probes
// versus replayed ones. Chosen bindings and Results are identical (gated
// by TestOptimalReplayMatchesLive); only the wall clock differs.
func BenchmarkOptimalOracle(b *testing.B) {
	cfg := arch.TileGx72()
	entry, ok := apps.ByName("<AES, QUERY>")
	if !ok {
		b.Fatal("catalog missing app")
	}
	run := func(b *testing.B, noReplay bool) {
		for i := 0; i < b.N; i++ {
			res, err := driver.Run(cfg, core.New(32), entry.Factory,
				driver.Options{Scale: 0.1, Optimal: true, OptimalStride: 4, NoReplay: noReplay, Seed: 5})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.SecureCores), "chosen-binding")
		}
	}
	b.Run("live", func(b *testing.B) { run(b, true) })
	b.Run("replay", func(b *testing.B) { run(b, false) })
}

func BenchmarkFig1a(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		mx, err := experiments.RunMatrix(cfg, benchEC())
		if err != nil {
			b.Fatal(err)
		}
		mx.Fig1a(io.Discard)
		base := metrics.Geomean(completions(mx, "Insecure"))
		b.ReportMetric(metrics.Geomean(completions(mx, "SGX"))/base, "sgx-vs-insecure")
		b.ReportMetric(metrics.Geomean(completions(mx, "MI6"))/base, "mi6-vs-insecure")
		b.ReportMetric(metrics.Geomean(completions(mx, "IRONHIDE"))/base, "ironhide-vs-insecure")
	}
}

func completions(mx *experiments.Matrix, model string) []float64 {
	var out []float64
	for _, app := range mx.Order {
		out = append(out, float64(mx.Cells[app][model].Result.CompletionCycles))
	}
	return out
}

func BenchmarkFig6Completion(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		mx, err := experiments.RunMatrix(cfg, benchEC())
		if err != nil {
			b.Fatal(err)
		}
		mx.Fig6(io.Discard)
		mi6 := metrics.Geomean(completions(mx, "MI6"))
		ih := metrics.Geomean(completions(mx, "IRONHIDE"))
		b.ReportMetric(mi6/ih, "mi6-vs-ironhide")
	}
}

func BenchmarkFig7MissRates(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		mx, err := experiments.RunMatrix(cfg, benchEC())
		if err != nil {
			b.Fatal(err)
		}
		mx.Fig7(io.Discard)
		var mi6, ih float64
		for _, app := range mx.Order {
			mi6 += mx.Cells[app]["MI6"].Result.L1MissRate()
			ih += mx.Cells[app]["IRONHIDE"].Result.L1MissRate()
		}
		b.ReportMetric(mi6/ih, "l1-missrate-gain")
	}
}

func BenchmarkFig8Heuristic(b *testing.B) {
	cfg := benchCfg()
	ec := experiments.Config{Scale: 0.03, Apps: []string{"<AES, QUERY>"}, Stride: 20}
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig8(cfg, ec, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttackChannel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		leak, err := attack.CovertChannel(enclave.SGXLike{}, 48, 42)
		if err != nil {
			b.Fatal(err)
		}
		dead, err := attack.CovertChannel(core.New(32), 48, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(leak.Accuracy(), "sgx-bit-accuracy")
		b.ReportMetric(dead.Accuracy(), "ironhide-bit-accuracy")
	}
}

func BenchmarkInteractivitySweep(b *testing.B) {
	cfg := benchCfg()
	ec := experiments.Config{Scale: 1, Apps: []string{"<MEMCACHED, OS>"}}
	for i := 0; i < b.N; i++ {
		points, err := experiments.Sweep(cfg, ec, []int{20, 60}, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[len(points)-2].PurgeShare, "mi6-purge-share")
	}
}

// Ablation: the local homing policy MI6/IRONHIDE need versus the
// platform's default hash-for-home, measured as average access latency of
// a strided walk.
func BenchmarkHomingPolicy(b *testing.B) {
	cfg := arch.TileGx72()
	run := func(local bool) float64 {
		m, err := sim.NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if local {
			m.SetHomePolicy(arch.Insecure, cache.NewLocalHome())
			slices := make([]cache.SliceID, 8)
			for i := range slices {
				slices[i] = cache.SliceID(i)
			}
			m.SetSlices(arch.Insecure, slices)
		}
		buf := m.NewSpace("bench", arch.Insecure).Alloc("a", 2<<20)
		var lat int64
		n := 0
		for off := 0; off < buf.Size; off += cfg.LineSize {
			lat += m.Access(0, buf.Addr(off), false, arch.Insecure, lat)
			n++
		}
		return float64(lat) / float64(n)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false), "hash-cycles/access")
		b.ReportMetric(run(true), "local-cycles/access")
	}
}

// Ablation: bidirectional X-Y/Y-X routing versus X-Y-only containment
// failures across every contiguous split.
func BenchmarkRoutingIsolation(b *testing.B) {
	cfg := arch.TileGx72()
	for i := 0; i < b.N; i++ {
		var xyFails, bidirFails int
		for secure := 1; secure < cfg.Cores(); secure++ {
			split, err := noc.NewSplit(secure, cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, cl := range []noc.Cluster{noc.SecureCluster, noc.InsecureCluster} {
				member := split.Member(cl)
				cores := split.Cores(cl)
				for _, src := range cores {
					for _, dst := range cores {
						p := noc.Path(cfg.CoordOf(src), cfg.CoordOf(dst), noc.XY)
						if !noc.Contained(p, member) {
							xyFails++
						}
						if _, _, err := noc.Route(cfg.CoordOf(src), cfg.CoordOf(dst), member); err != nil {
							bidirFails++
						}
					}
				}
			}
		}
		if bidirFails != 0 {
			b.Fatalf("bidirectional routing failed containment %d times", bidirFails)
		}
		b.ReportMetric(float64(xyFails), "xy-only-violations")
	}
}

// Ablation: the full strong-isolation purge (the MI6 per-interaction
// cost) at full protocol fidelity.
func BenchmarkPurge(b *testing.B) {
	cfg := arch.TileGx72()
	m, err := sim.NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	mi6 := enclave.MulticoreMI6{}
	if err := mi6.Configure(m); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cost int64
	for i := 0; i < b.N; i++ {
		cost = mi6.EnterSecure(m)
	}
	b.ReportMetric(float64(cost)/1e6, "ms-per-purge")
}

// Ablation: the cost of one dynamic hardware isolation event versus the
// number of cores moved (the paper's ~15 ms one-time overhead).
func BenchmarkReconfigBudget(b *testing.B) {
	cfg := arch.TileGx72()
	for i := 0; i < b.N; i++ {
		m, err := sim.NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ih := core.New(32)
		if err := ih.Configure(m); err != nil {
			b.Fatal(err)
		}
		m.NewSpace("enclave", arch.Secure).Alloc("data", 8<<20)
		m.NewSpace("ordinary", arch.Insecure).Alloc("data", 8<<20)
		res, err := ih.Reconfigure(m, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles)/1e6, "ms-per-reconfig")
		b.ReportMetric(float64(res.PagesMoved), "pages-moved")
	}
}

// BenchmarkScenarioPhase measures the multi-tenant timeline engine: one
// fixed resize-heavy scenario per iteration, reported per phase. The
// timeline covers the engine's whole surface — admission, binding search
// over a cached trace, a budget-denied load shift, a purged resize, and
// the per-phase tenant replays.
func BenchmarkScenarioPhase(b *testing.B) {
	cfg := benchCfg()
	spec := scenario.Spec{
		Seed: 42, Scale: 0.05, Apps: []string{"aes-query", "sssp-graph"},
		Timeline: []scenario.Event{
			{Kind: scenario.Arrive, App: "aes-query"},
			{Kind: scenario.LoadShift, App: "aes-query", Factor: 2},
			{Kind: scenario.Arrive, App: "sssp-graph"},
			{Kind: scenario.Depart, App: "aes-query"},
		},
	}
	b.ReportAllocs()
	var rep *scenario.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = scenario.Run(cfg, spec, scenario.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	if rep.TotalPurgeCycles <= 0 || rep.RouteViolations != 0 {
		b.Fatalf("implausible scenario: purge=%d violations=%d", rep.TotalPurgeCycles, rep.RouteViolations)
	}
	phases := float64(len(rep.Phases))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/phases/1e6, "ms-per-phase")
	b.ReportMetric(float64(rep.TotalPurgeCycles)/phases, "purge-cycles-per-phase")
}

// BenchmarkScenarioStream runs BenchmarkScenarioPhase's timeline with a
// streaming event sink attached, measuring what live event emission adds
// on top of the blocking engine (the sink is the service's /v1/scenario
// stream path minus HTTP framing).
func BenchmarkScenarioStream(b *testing.B) {
	cfg := benchCfg()
	spec := scenario.Spec{
		Seed: 42, Scale: 0.05, Apps: []string{"aes-query", "sssp-graph"},
		Timeline: []scenario.Event{
			{Kind: scenario.Arrive, App: "aes-query"},
			{Kind: scenario.LoadShift, App: "aes-query", Factor: 2},
			{Kind: scenario.Arrive, App: "sssp-graph"},
			{Kind: scenario.Depart, App: "aes-query"},
		},
	}
	b.ReportAllocs()
	var rep *scenario.Report
	var events int
	for i := 0; i < b.N; i++ {
		events = 0
		var err error
		rep, err = scenario.Run(cfg, spec, scenario.Options{
			Sink: func(scenario.StreamEvent) { events++ },
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if events <= len(rep.Phases) {
		b.Fatalf("implausible stream: %d events for %d phases", events, len(rep.Phases))
	}
	b.ReportMetric(float64(events), "events-per-run")
}

// benchGrid measures one full app×model matrix at the given worker
// count; comparing the two benchmarks shows the runner's wall-clock
// speedup on this host.
func benchGrid(b *testing.B, workers int) {
	cfg := benchCfg()
	ec := benchEC()
	ec.Parallel = workers
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mx, err := experiments.RunMatrix(cfg, ec)
		if err != nil {
			b.Fatal(err)
		}
		if len(mx.Order) != 2 {
			b.Fatalf("matrix has %d apps", len(mx.Order))
		}
	}
}

func BenchmarkGridSequential(b *testing.B) { benchGrid(b, 1) }

func BenchmarkGridParallel(b *testing.B) { benchGrid(b, runner.DefaultWorkers()) }

// End-to-end guardrail: the paper's headline must hold at bench scale.
func BenchmarkHeadlineClaim(b *testing.B) {
	cfg := benchCfg()
	entry, ok := apps.ByName("<MEMCACHED, OS>")
	if !ok {
		b.Fatal("catalog missing app")
	}
	for i := 0; i < b.N; i++ {
		mi6, err := driver.Run(cfg, enclave.MulticoreMI6{}, entry.Factory, driver.Options{Scale: 0.05})
		if err != nil {
			b.Fatal(err)
		}
		ih, err := driver.Run(cfg, core.New(32), entry.Factory, driver.Options{Scale: 0.05, FixedSecureCores: 24})
		if err != nil {
			b.Fatal(err)
		}
		ratio := float64(mi6.CompletionCycles) / float64(ih.CompletionCycles)
		if ratio < 1.5 {
			b.Fatalf("MI6/IRONHIDE = %.2f; the headline claim collapsed", ratio)
		}
		b.ReportMetric(ratio, "mi6-vs-ironhide")
	}
}

// benchTenants captures the two representative apps once and packs them
// with the interference-aware policy — the same partition path the joint
// scheduler and the co-tenant scenario engine use.
func benchTenants(b *testing.B, cfg arch.Config, scale float64) (sched.Resources, []driver.CoTenant) {
	b.Helper()
	var tenants []sched.Tenant
	for _, name := range []string{"<AES, QUERY>", "<MEMCACHED, OS>"} {
		entry, ok := apps.ByName(name)
		if !ok {
			b.Fatal("catalog missing app")
		}
		tr, err := driver.CaptureTrace(cfg, entry.Factory, driver.Options{Scale: scale})
		if err != nil {
			b.Fatal(err)
		}
		tenants = append(tenants, sched.Tenant{Name: entry.Alias, Trace: tr})
	}
	res, err := sched.MachineResources(cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	part, err := sched.InterferenceAware{}.Partition(res, []int{16, 16})
	if err != nil {
		b.Fatal(err)
	}
	return res, part.CoTenants(tenants)
}

// BenchmarkCoTenantReplay measures one space-shared co-run: two mutually
// distrusting tenants replaying *simultaneously* on disjoint sub-gangs of
// one machine with cross-tenant NoC contention tracking on.
func BenchmarkCoTenantReplay(b *testing.B) {
	cfg := benchCfg()
	const scale = 0.05
	res, cotenants := benchTenants(b, cfg, scale)
	b.ReportAllocs()
	b.ResetTimer()
	var co *driver.CoRunResult
	for i := 0; i < b.N; i++ {
		var err error
		co, err = driver.CoRunTraces(cfg, cotenants, driver.CoRunOptions{
			Scale: scale, SecureCores: res.SecureCores, Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if co.TotalCycles <= 0 || co.RouteViolations != 0 {
		b.Fatalf("implausible co-run: cycles=%d violations=%d", co.TotalCycles, co.RouteViolations)
	}
	var conflicts int64
	for _, t := range co.Tenants {
		conflicts += t.LinkConflicts
	}
	b.ReportMetric(float64(conflicts), "link-conflicts")
	b.ReportMetric(float64(co.TotalCycles)/1e6, "mcycles-horizon")
}

// BenchmarkJointSearch measures the full joint-scheduler pipeline: the
// per-tenant demand searches, every packing policy's partition, and each
// partition's scoring co-runs (one fully active plus one single-active
// baseline per tenant), fanned out over all host cores.
func BenchmarkJointSearch(b *testing.B) {
	cfg := benchCfg()
	const scale = 0.04
	var tenants []sched.Tenant
	for _, name := range []string{"<AES, QUERY>", "<MEMCACHED, OS>"} {
		entry, ok := apps.ByName(name)
		if !ok {
			b.Fatal("catalog missing app")
		}
		tr, err := driver.CaptureTrace(cfg, entry.Factory, driver.Options{Scale: scale})
		if err != nil {
			b.Fatal(err)
		}
		tenants = append(tenants, sched.Tenant{Name: entry.Alias, Trace: tr})
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rep *sched.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = sched.JointSearch(cfg, tenants, sched.Options{
			Scale: scale, Workers: runner.DefaultWorkers(), Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rep.Policies) != 3 || rep.Best == "" {
		b.Fatalf("implausible report: best %q over %d policies", rep.Best, len(rep.Policies))
	}
	b.ReportMetric(rep.Policies[0].Throughput, "best-throughput")
	b.ReportMetric(rep.Policies[0].Fairness, "best-fairness")
}

// BenchmarkTraceDecode measures the varint codec over a real capture —
// the validation cost a service pays on every untrusted trace upload, and
// the first of the two once-per-trace passes replay performs (decode, then
// lowering).
func BenchmarkTraceDecode(b *testing.B) {
	entry, ok := apps.ByName("<AES, QUERY>")
	if !ok {
		b.Fatal("catalog missing app")
	}
	tr, err := driver.CaptureTrace(arch.TileGx72(), entry.Factory, driver.Options{Scale: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(tr.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayPlanLower measures the full once-per-(trace, gang size)
// plan build — decode, marker stripping, and run-table resolution — that
// every probe of a binding search amortizes. Clone presents the trace the
// way a fresh deserialization would, so each iteration pays the whole
// pipeline.
func BenchmarkReplayPlanLower(b *testing.B) {
	entry, ok := apps.ByName("<AES, QUERY>")
	if !ok {
		b.Fatal("catalog missing app")
	}
	tr, err := driver.CaptureTrace(arch.TileGx72(), entry.Factory, driver.Options{Scale: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := tr.Clone()
		for _, p := range []*trace.Proc{&cp.Ins, &cp.Sec} {
			if n := p.Lower(24); n == 0 {
				b.Fatal("empty plan")
			}
		}
	}
}
