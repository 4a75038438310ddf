// The root package's one list of named operations. Each row's setup does
// the one-time work (captures, machine builds) and returns the operation;
// TestAllocBudgets holds every row to its heap-allocation budget, and
// BenchmarkOps times the same rows for -bench and -cpuprofile work:
//
//	go test -run '^$' -bench 'Ops/SearchProbe/replay' -cpuprofile cpu.out .
//
// End-to-end and per-layer timing lives in the benchmark/ module.
package ironhide

import (
	"math"
	"runtime"
	"testing"

	"ironhide/internal/apps"
	"ironhide/internal/arch"
	"ironhide/internal/cache"
	"ironhide/internal/core"
	"ironhide/internal/driver"
	"ironhide/internal/enclave"
	"ironhide/internal/experiments"
	"ironhide/internal/noc"
	"ironhide/internal/scenario"
	"ironhide/internal/sched"
	"ironhide/internal/sim"
	"ironhide/internal/trace"
)

// allocOp is one named operation. bound is the most heap allocations one
// call may make: 1.2x the steady-state count measured when the row was
// pinned (the first call of a run fills pools and caches; AllocsPerRun's
// warm-up call absorbs it). bytes, where set, is the same kind of ceiling
// on the bytes one call allocates, for rows whose regressions are large
// objects rather than many small ones: a throwaway machine or a retained
// per-op decode costs megabytes in a handful of allocations.
type allocOp struct {
	name  string
	bound float64
	bytes float64
	setup func(tb testing.TB) (op func())
}

var allocOps = []allocOp{
	{"Table1Machine", 824, 9_204_240, func(tb testing.TB) func() {
		cfg := arch.TileGx72()
		return func() {
			m := newMachine(tb, cfg)
			buf := m.NewSpace("bench", arch.Insecure).Alloc("a", 1<<20)
			var lat int64
			for off := 0; off < buf.Size; off += cfg.LineSize {
				lat += m.Access(0, buf.Addr(off), false, arch.Insecure, lat)
			}
		}
	}},
	// One steady-state Machine.Access on the full machine with routing
	// isolation active: the operation every simulated reference pays.
	{"AccessHotPath/l1-hit", 0, 0, func(tb testing.TB) func() {
		m, buf := hotPathMachine(tb)
		addr := buf.Addr(0)
		m.Access(0, addr, false, arch.Secure, 0)
		return func() { m.Access(0, addr, false, arch.Secure, 1) }
	}},
	{"AccessHotPath/l2-miss", 0, 0, func(tb testing.TB) func() {
		m, buf := hotPathMachine(tb)
		line := m.Cfg.LineSize
		for off := 0; off < buf.Size; off += line {
			m.Access(0, buf.Addr(off), true, arch.Secure, 0)
		}
		off := 0
		return func() {
			m.Access(0, buf.Addr(off), true, arch.Secure, 1)
			off = (off + line) % buf.Size
		}
	}},
	// One binding-search probe of <AES, QUERY>: the one-time capture, and
	// a replay of that capture.
	{"SearchProbe/capture", 8320, 0, func(tb testing.TB) func() {
		cfg, entry := arch.TileGx72(), appEntry(tb, "<AES, QUERY>")
		return func() {
			if _, err := driver.CaptureTrace(cfg, entry.Factory, probeOpts); err != nil {
				tb.Fatal(err)
			}
		}
	}},
	{"SearchProbe/replay", 85, 0, func(tb testing.TB) func() {
		cfg, tr := arch.TileGx72(), probeTrace(tb)
		return func() {
			if _, err := driver.ProfileTrace(cfg, core.New(32), tr, probeOpts, probeCandidate); err != nil {
				tb.Fatal(err)
			}
		}
	}},
	// The full strong-isolation purge: MI6's per-interaction cost.
	{"Purge", 2, 0, func(tb testing.TB) func() {
		m := newMachine(tb, arch.TileGx72())
		mi6 := enclave.MulticoreMI6{}
		if err := mi6.Configure(m); err != nil {
			tb.Fatal(err)
		}
		return func() { mi6.EnterSecure(m) }
	}},
	// One dynamic hardware isolation event on a fresh machine.
	{"ReconfigBudget", 936, 10_027_363, func(tb testing.TB) func() {
		cfg := arch.TileGx72()
		return func() {
			m := newMachine(tb, cfg)
			ih := core.New(32)
			if err := ih.Configure(m); err != nil {
				tb.Fatal(err)
			}
			m.NewSpace("enclave", arch.Secure).Alloc("data", 8<<20)
			m.NewSpace("ordinary", arch.Insecure).Alloc("data", 8<<20)
			if _, err := ih.Reconfigure(m, 8); err != nil {
				tb.Fatal(err)
			}
		}
	}},
	// A resize-heavy multi-tenant timeline, without and with a streaming
	// event sink.
	{"ScenarioPhase", 7675, 10_062_739, func(tb testing.TB) func() {
		return func() { runScenario(tb, scenario.Options{}) }
	}},
	{"ScenarioStream", 7675, 10_062_739, func(tb testing.TB) func() {
		return func() {
			events := 0
			rep := runScenario(tb, scenario.Options{Sink: func(scenario.StreamEvent) { events++ }})
			if events <= len(rep.Phases) {
				tb.Fatalf("implausible stream: %d events for %d phases", events, len(rep.Phases))
			}
		}
	}},
	// One app×model matrix on one runner worker and on all host cores.
	{"GridSequential", 10039, 4_835_750, func(tb testing.TB) func() { return gridOp(tb, 1) }},
	{"GridParallel", 10041, 4_835_750, func(tb testing.TB) func() { return gridOp(tb, runtime.NumCPU()) }},
	// One space-shared co-run of two tenants on disjoint sub-gangs.
	{"CoTenantReplay", 91, 0, func(tb testing.TB) func() {
		cfg := arch.TileGx72Scaled(12)
		tenants := tenantTraces(tb, cfg, 0.05)
		res, err := sched.MachineResources(cfg, 0)
		if err != nil {
			tb.Fatal(err)
		}
		part, err := sched.InterferenceAware{}.Partition(res, []int{16, 16})
		if err != nil {
			tb.Fatal(err)
		}
		cotenants := part.CoTenants(tenants)
		return func() {
			co, err := driver.CoRunTraces(cfg, cotenants, driver.CoRunOptions{Scale: 0.05, SecureCores: res.SecureCores, Seed: 42})
			if err != nil {
				tb.Fatal(err)
			}
			if co.TotalCycles <= 0 || co.RouteViolations != 0 {
				tb.Fatalf("implausible co-run: cycles=%d violations=%d", co.TotalCycles, co.RouteViolations)
			}
		}
	}},
	// The joint scheduler end to end: demand searches, every policy's
	// partition and its scoring co-runs.
	{"JointSearch", 3871, 1_809_677, func(tb testing.TB) func() {
		cfg := arch.TileGx72Scaled(12)
		tenants := tenantTraces(tb, cfg, 0.04)
		workers := runtime.NumCPU()
		return func() {
			rep, err := sched.JointSearch(cfg, tenants, sched.Options{Scale: 0.04, Workers: workers, Seed: 42})
			if err != nil {
				tb.Fatal(err)
			}
			if len(rep.Policies) != 3 || rep.Best == "" {
				tb.Fatalf("implausible report: best %q over %d policies", rep.Best, len(rep.Policies))
			}
		}
	}},
	// The varint validation a service pays on every untrusted trace
	// upload: one pass over the bytes, no expanded form.
	{"TraceDecode", 0, 0, func(tb testing.TB) func() {
		tr := probeTrace(tb)
		return func() {
			if err := tr.Validate(); err != nil {
				tb.Fatal(err)
			}
		}
	}},
	// The once-per-(trace, gang size) plan build every search probe
	// amortizes; Clone presents the trace as a fresh deserialization would.
	{"ReplayPlanLower", 858, 3_511_277, func(tb testing.TB) func() {
		tr := probeTrace(tb)
		return func() {
			cp := tr.Clone()
			for _, p := range []*trace.Proc{&cp.Ins, &cp.Sec} {
				if p.Lower(probeCandidate) == 0 {
					tb.Fatal("empty plan")
				}
			}
		}
	}},
}

// TestAllocBudgets holds every row of allocOps to its allocation bound.
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomly defeats sync.Pool recycling, so steady-state allocation counts don't hold")
	}
	for _, row := range allocOps {
		t.Run(row.name, func(t *testing.T) {
			op := row.setup(t)
			n := testing.AllocsPerRun(1, op)
			if n > row.bound {
				t.Fatalf("%.0f allocs/op, bound %.0f", n, row.bound)
			}
			t.Logf("%.0f allocs/op, bound %.0f", n, row.bound)
			b := bytesPerRun(op)
			if row.bytes > 0 && b > row.bytes {
				t.Fatalf("%.0f bytes/op, bound %.0f", b, row.bytes)
			}
			t.Logf("%.0f bytes/op, bound %.0f", b, row.bytes)
		})
	}
}

// bytesPerRun is the fewest bytes one warm call of op allocated over three
// calls. A GC can empty the machine pool mid-call and make that call build
// a machine the steady state reuses; the minimum measures the steady state.
func bytesPerRun(op func()) float64 {
	best := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return float64(best)
}

// BenchmarkOps times every row of allocOps.
func BenchmarkOps(b *testing.B) {
	for _, row := range allocOps {
		b.Run(row.name, func(b *testing.B) {
			op := row.setup(b)
			b.ReportAllocs()
			for b.Loop() {
				op()
			}
		})
	}
}

// The binding-search probe rows run <AES, QUERY> at scale 0.2 and time a
// 24-core secure cluster.
var probeOpts = driver.Options{Scale: 0.2}

const probeCandidate = 24

func probeTrace(tb testing.TB) *trace.Trace {
	tr, err := driver.CaptureTrace(arch.TileGx72(), appEntry(tb, "<AES, QUERY>").Factory, probeOpts)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func appEntry(tb testing.TB, name string) apps.Entry {
	entry, ok := apps.ByName(name)
	if !ok {
		tb.Fatalf("catalog missing %s", name)
	}
	return entry
}

func newMachine(tb testing.TB, cfg arch.Config) *sim.Machine {
	m, err := sim.NewMachine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// hotPathMachine homes a window of twice one L2 slice on slice 0, so a
// cyclic walk over it misses L2 on every steady-state access.
func hotPathMachine(tb testing.TB) (*sim.Machine, sim.Buffer) {
	cfg := arch.TileGx72()
	m := newMachine(tb, cfg)
	if err := m.Part.AssignDomains(0b0011); err != nil {
		tb.Fatal(err)
	}
	split, err := noc.NewSplit(32, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	m.SetSplit(split, true)
	m.SetHomePolicy(arch.Secure, cache.NewLocalHome())
	m.SetSlices(arch.Secure, []cache.SliceID{0})
	return m, m.NewSpace("bench", arch.Secure).Alloc("a", 2*cfg.L2SliceSize)
}

// runScenario runs a fixed timeline covering admission, a binding search,
// a budget-denied load shift, a purged resize and the per-phase replays.
func runScenario(tb testing.TB, opts scenario.Options) *scenario.Report {
	spec := scenario.Spec{
		Seed: 42, Scale: 0.05, Apps: []string{"aes-query", "sssp-graph"},
		Timeline: []scenario.Event{
			{Kind: scenario.Arrive, App: "aes-query"},
			{Kind: scenario.LoadShift, App: "aes-query", Factor: 2},
			{Kind: scenario.Arrive, App: "sssp-graph"},
			{Kind: scenario.Depart, App: "aes-query"},
		},
	}
	rep, err := scenario.Run(arch.TileGx72Scaled(12), spec, opts)
	if err != nil {
		tb.Fatal(err)
	}
	if rep.TotalPurgeCycles <= 0 || rep.RouteViolations != 0 {
		tb.Fatalf("implausible scenario: purge=%d violations=%d", rep.TotalPurgeCycles, rep.RouteViolations)
	}
	return rep
}

func gridOp(tb testing.TB, workers int) func() {
	ec := experiments.Config{Scale: 0.04, Apps: []string{"<AES, QUERY>", "<MEMCACHED, OS>"}, Stride: 16, Parallel: workers}
	return func() {
		mx, err := experiments.RunMatrix(arch.TileGx72Scaled(12), ec)
		if err != nil {
			tb.Fatal(err)
		}
		if len(mx.Order) != 2 {
			tb.Fatalf("matrix has %d apps", len(mx.Order))
		}
	}
}

// tenantTraces captures <AES, QUERY> and <MEMCACHED, OS> as two tenants.
func tenantTraces(tb testing.TB, cfg arch.Config, scale float64) []sched.Tenant {
	var tenants []sched.Tenant
	for _, name := range []string{"<AES, QUERY>", "<MEMCACHED, OS>"} {
		entry := appEntry(tb, name)
		tr, err := driver.CaptureTrace(cfg, entry.Factory, driver.Options{Scale: scale})
		if err != nil {
			tb.Fatal(err)
		}
		tenants = append(tenants, sched.Tenant{Name: entry.Alias, Trace: tr})
	}
	return tenants
}
