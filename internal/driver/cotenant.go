// Space-shared co-tenancy: several mutually distrusting tenants replay
// their captured traces *simultaneously* on disjoint sub-gangs of one
// machine. This is the paper's actual deployment premise — spatially
// isolated tenants sharing one secure multicore — which the solo-replay
// measurement path cannot express: interference through shared L2 slices,
// memory controllers, and NoC links only exists when the tenants' access
// streams interleave on one cycle horizon.
//
// The engine interleaves interaction rounds across tenants by pipeline
// frontier (always advancing the tenant that is furthest behind), so every
// tenant's accesses hit the shared memory system in deterministic global
// order: the same tenant set produces byte-identical results on every run,
// at any worker count, under the race detector. Solo baselines come from
// the same engine with all tenants initialized but only one active — the
// machine state at initialization is then bit-identical to the co-run's,
// so a tenant whose resources are disjoint from every co-runner completes
// in exactly the same cycle count solo and co-resident (the
// zero-interference cross-check), while overlapping placements surface
// real slowdowns.
package driver

import (
	"fmt"

	"ironhide/internal/arch"
	"ironhide/internal/cache"
	"ironhide/internal/core"
	"ironhide/internal/sim"
	"ironhide/internal/trace"
)

// CoTenant is one tenant of a space-shared co-run: a captured trace plus
// the share of the machine the joint scheduler assigned it. Core sets must
// be disjoint across tenants and stay inside their clusters; slice and
// region sets may overlap between tenants (that overlap *is* the
// interference surface). Nil slice or region sets default to the whole
// cluster's — the maximally shared placement.
type CoTenant struct {
	Trace *trace.Trace

	SecureCores   []arch.CoreID
	InsecureCores []arch.CoreID

	SecureSlices   []cache.SliceID
	InsecureSlices []cache.SliceID

	SecureRegions   []int
	InsecureRegions []int
}

// CoRunOptions tune one co-run.
type CoRunOptions struct {
	// Scale must match every tenant trace's capture scale.
	Scale float64
	// SecureCores is the secure-cluster size the tenants' sub-gangs
	// partition (0 = half the machine, the paper's starting split).
	SecureCores int
	// Active marks which tenants execute rounds (nil = all). Inactive
	// tenants are still attested and initialized — their pages are mapped
	// and placed exactly as in the fully active co-run — so a single-active
	// co-run is the solo baseline with bit-identical initial machine state.
	Active []bool
	// Seed derives the attestation authority deterministically (0 reads
	// system entropy; measurements are unaffected either way).
	Seed int64
	// Interrupt, when non-nil, is polled at round boundaries; a non-nil
	// return aborts the co-run with that error.
	Interrupt func() error
}

func (o CoRunOptions) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

// CoTenantResult is one tenant's measured share of a co-run.
type CoTenantResult struct {
	App           string `json:"app"`
	Active        bool   `json:"active"`
	SecureCores   int    `json:"secure_cores"`
	InsecureCores int    `json:"insecure_cores"`

	// CompletionCycles spans the tenant's measured rounds (after its own
	// warmup) on the shared cycle horizon; zero for inactive tenants.
	CompletionCycles int64 `json:"completion_cycles"`
	Interactions     int64 `json:"interactions"`
	Rounds           int   `json:"rounds"`

	// LinkConflicts counts this tenant's NoC contention events: packets
	// that took a mesh link over from a different tenant, each paying
	// Cfg.LinkContentionLat. Always zero when the tenant's links are
	// disjoint from every co-runner's.
	LinkConflicts int64 `json:"link_conflicts"`

	// Private-cache traffic over the tenant's own cores, measured after
	// the tenant's warmup boundary.
	L1Accesses int64 `json:"l1_accesses"`
	L1Misses   int64 `json:"l1_misses"`
}

// CoRunResult is the outcome of one space-shared co-run.
type CoRunResult struct {
	Tenants []CoTenantResult `json:"tenants"`

	// TotalCycles is the shared horizon's end: the latest pipeline
	// frontier over all active tenants.
	TotalCycles int64 `json:"total_cycles"`

	// Machine-global counters over the whole run (warmup included): the
	// shared L2 and memory controllers cannot be attributed per tenant
	// when placements overlap, so interference in those channels is read
	// as deltas between co-runs and solo baselines.
	L2Accesses      int64 `json:"l2_accesses"`
	L2Misses        int64 `json:"l2_misses"`
	MCStalls        int64 `json:"mc_stalls"`
	RouteViolations int64 `json:"route_violations"`
	BlockedAccesses int64 `json:"blocked_accesses"`
}

// coTenantState is one tenant of a co-run: its pipeline on its own gangs
// and ring, and the cores its counters are read from.
type coTenantState struct {
	p                  pipeline
	secCores, insCores []arch.CoreID
	active             bool
}

// CoRunTraces replays the tenants' traces simultaneously on one machine,
// each tenant on its own sub-gangs, with interaction rounds interleaved by
// pipeline frontier so the tenants' memory traffic contends on the shared
// L2 slices, memory controllers, and mesh links in deterministic order.
func CoRunTraces(cfg arch.Config, tenants []CoTenant, opts CoRunOptions) (*CoRunResult, error) {
	if err := validateCoTenants(cfg, tenants, opts); err != nil {
		return nil, err
	}
	secCores := opts.SecureCores
	if secCores <= 0 {
		secCores = cfg.Cores() / 2
	}

	m, err := AcquireMachine(cfg)
	if err != nil {
		return nil, err
	}
	defer ReleaseMachine(m)
	ih := core.New(secCores)
	if err := ih.Configure(m); err != nil {
		return nil, err
	}

	// Every tenant's secure process is attested into one shared secure
	// kernel before touching the secure cluster — the tenants distrust
	// each other, not the authority.
	auth, err := NewAuthority(opts.Seed)
	if err != nil {
		return nil, err
	}
	k := auth.NewKernel()

	// The whole cluster's slice sets, for tenants that share everything.
	clusterSecSlices := append([]cache.SliceID(nil), m.Slices(arch.Secure)...)
	clusterInsSlices := append([]cache.SliceID(nil), m.Slices(arch.Insecure)...)

	states := make([]*coTenantState, len(tenants))
	for i, t := range tenants {
		app := t.Trace.NewApp()
		if err := app.Validate(); err != nil {
			return nil, err
		}
		if err := auth.Admit(k, app); err != nil {
			return nil, err
		}
		if err := validateRegions(m, t); err != nil {
			return nil, fmt.Errorf("driver: tenant %d (%s): %w", i, app.Name, err)
		}

		// The tenant's pages go to its own slice and region share; pages
		// pin their homes at allocation, so restricting the candidates
		// only during this tenant's initialization is sufficient.
		base := arch.Addr(m.TotalPages() * cfg.PageSize)
		m.SetSlices(arch.Secure, orSlices(t.SecureSlices, clusterSecSlices))
		m.SetSlices(arch.Insecure, orSlices(t.InsecureSlices, clusterInsSlices))
		m.SetAllocRegions(arch.Secure, t.SecureRegions)
		m.SetAllocRegions(arch.Insecure, t.InsecureRegions)
		ring, err := initApp(m, app)
		if err != nil {
			return nil, err
		}

		ts := &coTenantState{
			secCores: gangCores(t.SecureCores, app.Secure.Threads()),
			insCores: gangCores(t.InsecureCores, app.Insecure.Threads()),
			active:   opts.Active == nil || opts.Active[i],
		}
		// A tenant's measurement window resets only its own cores'
		// counters: the shared L2 and controllers count the whole run.
		ts.p = newPipeline(m, ring, app, ts.secCores, ts.insCores, app.Warmup, app.Rounds)
		ts.p.open = func() {
			resetCores(m, ts.secCores)
			resetCores(m, ts.insCores)
		}
		// The trace was captured on a machine whose pages start at zero;
		// this tenant's pages start at base. The gangs shift every
		// replayed address accordingly.
		ts.p.gIns.SetAddrOffset(base)
		ts.p.gSec.SetAddrOffset(base)
		states[i] = ts
	}
	// Restore the cluster-wide placement defaults.
	m.SetSlices(arch.Secure, clusterSecSlices)
	m.SetSlices(arch.Insecure, clusterInsSlices)
	m.SetAllocRegions(arch.Secure, nil)
	m.SetAllocRegions(arch.Insecure, nil)

	// Link-contention accounting: each tenant's packets pay
	// Cfg.LinkContentionLat per mesh link taken over from a different
	// tenant, and the per-tenant conflict counters feed the result.
	for i, ts := range states {
		m.SetTenantCores(i+1, ts.secCores)
		m.SetTenantCores(i+1, ts.insCores)
	}

	// The co-run proper: always advance the active tenant whose pipeline
	// frontier is earliest (ties to the lowest index), one interaction
	// round at a time. The schedule is a pure function of the simulated
	// clocks, so the global interleaving — and with it every cache
	// eviction, controller queue delay, and link conflict — is
	// deterministic.
	resetStats(m)
	for {
		var next *pipeline
		for _, ts := range states {
			if ts.active && !ts.p.done() && (next == nil || ts.p.frontier() < next.frontier()) {
				next = &ts.p
			}
		}
		if next == nil {
			break
		}
		if err := poll(opts.Interrupt); err != nil {
			return nil, err
		}
		next.step()
	}

	res := &CoRunResult{Tenants: make([]CoTenantResult, len(states))}
	for i, ts := range states {
		tr := CoTenantResult{
			App:           ts.p.app.Name,
			Active:        ts.active,
			SecureCores:   len(ts.secCores),
			InsecureCores: len(ts.insCores),
			Rounds:        ts.p.app.Rounds,
			LinkConflicts: m.TenantConflicts(i + 1),
		}
		if ts.active {
			tr.CompletionCycles = ts.p.completion()
			tr.Interactions = ts.p.interactions
			res.TotalCycles = max(res.TotalCycles, ts.p.frontier())
		}
		tr.L1Accesses, tr.L1Misses = addL1(m, ts.secCores, 0, 0)
		tr.L1Accesses, tr.L1Misses = addL1(m, ts.insCores, tr.L1Accesses, tr.L1Misses)
		res.Tenants[i] = tr
	}
	l2 := m.L2().AggregateStats()
	res.L2Accesses, res.L2Misses = l2.Accesses, l2.Misses
	for _, id := range m.AllMCs() {
		res.MCStalls += m.MC(id).Stats().Stalls
	}
	res.RouteViolations = m.RouteViolations()
	res.BlockedAccesses = m.BlockedAccesses()
	return res, nil
}

// orSlices returns s, or def when s is nil (the share-everything default).
func orSlices(s, def []cache.SliceID) []cache.SliceID {
	if s == nil {
		return def
	}
	return s
}

// validateCoTenants rejects ill-formed co-run requests: no tenants, scale
// mismatches, core sets outside their clusters, or overlapping core sets
// (space sharing means *disjoint* sub-gangs; slices and regions may
// overlap, cores may not).
func validateCoTenants(cfg arch.Config, tenants []CoTenant, opts CoRunOptions) error {
	if len(tenants) == 0 {
		return fmt.Errorf("driver: co-run needs at least one tenant")
	}
	if len(tenants) > 127 {
		return fmt.Errorf("driver: co-run of %d tenants exceeds the tracking limit of 127", len(tenants))
	}
	if opts.Active != nil && len(opts.Active) != len(tenants) {
		return fmt.Errorf("driver: active mask covers %d of %d tenants", len(opts.Active), len(tenants))
	}
	secCores := opts.SecureCores
	if secCores <= 0 {
		secCores = cfg.Cores() / 2
	}
	if secCores < 1 || secCores > cfg.Cores()-1 {
		return fmt.Errorf("driver: secure cluster of %d cores leaves a cluster empty", secCores)
	}
	owner := make([]int, cfg.Cores())
	for i, t := range tenants {
		if t.Trace == nil {
			return fmt.Errorf("driver: tenant %d has no trace", i)
		}
		if err := checkScale(t.Trace, opts.scale(), "co-run"); err != nil {
			return fmt.Errorf("%w (tenant %d)", err, i)
		}
		if len(t.SecureCores) == 0 || len(t.InsecureCores) == 0 {
			return fmt.Errorf("driver: tenant %d needs cores in both clusters", i)
		}
		for _, c := range t.SecureCores {
			if int(c) < 0 || int(c) >= secCores {
				return fmt.Errorf("driver: tenant %d secure core %d outside the secure cluster [0,%d)", i, c, secCores)
			}
			if o := owner[c]; o != 0 {
				return fmt.Errorf("driver: core %d assigned to both tenant %d and tenant %d", c, o-1, i)
			}
			owner[c] = i + 1
		}
		for _, c := range t.InsecureCores {
			if int(c) < secCores || int(c) >= cfg.Cores() {
				return fmt.Errorf("driver: tenant %d insecure core %d outside the insecure cluster [%d,%d)", i, c, secCores, cfg.Cores())
			}
			if o := owner[c]; o != 0 {
				return fmt.Errorf("driver: core %d assigned to both tenant %d and tenant %d", c, o-1, i)
			}
			owner[c] = i + 1
		}
		for _, s := range t.SecureSlices {
			if int(s) < 0 || int(s) >= secCores {
				return fmt.Errorf("driver: tenant %d secure slice %d outside the secure cluster [0,%d)", i, s, secCores)
			}
		}
		for _, s := range t.InsecureSlices {
			if int(s) < secCores || int(s) >= cfg.Cores() {
				return fmt.Errorf("driver: tenant %d insecure slice %d outside the insecure cluster [%d,%d)", i, s, secCores, cfg.Cores())
			}
		}
	}
	return nil
}

// validateRegions checks a tenant's region shares against the configured
// partition: a tenant's secure pages must live in secure-owned regions (and
// insecure in insecure-owned), or the speculative-access check would
// silently discard its traffic.
func validateRegions(m *sim.Machine, t CoTenant) error {
	for _, r := range t.SecureRegions {
		if r < 0 || r >= m.Part.Regions() || m.Part.OwnerOf(r) != arch.Secure {
			return fmt.Errorf("secure region %d is not secure-owned", r)
		}
	}
	for _, r := range t.InsecureRegions {
		if r < 0 || r >= m.Part.Regions() || m.Part.OwnerOf(r) != arch.Insecure {
			return fmt.Errorf("insecure region %d is not insecure-owned", r)
		}
	}
	return nil
}
