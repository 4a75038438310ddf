// Package scenario is the multi-tenant dynamic-reconfiguration engine:
// it drives a seeded timeline of interactive applications arriving at,
// departing from, and shifting load on one shared secure multicore, and
// accounts what the paper's dynamic isolation story costs end-to-end.
//
// Each timeline event opens a phase. The engine re-runs the cluster
// binding search for the resident tenant mix (payload-free, over cached
// per-application traces via driver.SearchTrace), asks the secure kernel
// to authorize a cluster resize — the kernel enforces the paper's
// security-centric budget of one dynamic-hardware-isolation event per
// application invocation, so load shifts inside one invocation are
// refused — and, when authorized, performs the resize on the shared
// machine: every core that changes domains has its private L1 and TLB
// flush-and-invalidated (Machine.PurgeCorePrivate via the model's
// Reconfigure), L2-resident pages are re-homed onto the new slice split
// with vacated slices purged, and the stall is charged to the phase.
// Resident tenants then time-share the secure cluster for the phase, with
// context-switch purges charged between mutually distrusting secure
// processes, and each tenant's completion measured by replaying its
// captured trace at the installed binding.
//
// The engine is a determinism test surface: an identical Spec (same seed)
// yields a byte-identical Report JSON at any worker count, under the race
// detector, and across replay.
package scenario

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"ironhide/internal/apps"
	"ironhide/internal/arch"
	"ironhide/internal/core"
	"ironhide/internal/driver"
	"ironhide/internal/enclave"
	"ironhide/internal/kernel"
	"ironhide/internal/noc"
	"ironhide/internal/runner"
	"ironhide/internal/sched"
	"ironhide/internal/sim"
	"ironhide/internal/trace"
)

// Event kinds of a timeline.
const (
	Arrive    = "arrive"
	Depart    = "depart"
	LoadShift = "load-shift"
)

// Event is one timeline step: an application arrives on the machine,
// departs from it, or shifts its load (its weight in the binding mix).
type Event struct {
	Kind string `json:"kind"`
	// App is the catalog alias the event concerns.
	App string `json:"app"`
	// Factor multiplies the tenant's weight on a load shift.
	Factor float64 `json:"factor,omitempty"`
}

// String renders the event for reports.
func (e Event) String() string {
	if e.Kind == LoadShift {
		return fmt.Sprintf("%s %s x%g", e.Kind, e.App, e.Factor)
	}
	return e.Kind + " " + e.App
}

// Spec declares one scenario.
type Spec struct {
	// Seed steers the generated timeline, the per-tenant run seeds, and
	// the attestation authority. Zero means 1.
	Seed int64 `json:"seed"`
	// Apps is the candidate application pool (catalog aliases). Empty
	// selects a default three-app mix.
	Apps []string `json:"apps,omitempty"`
	// Events is the generated timeline length (default 6). Ignored when
	// Timeline is set explicitly.
	Events int `json:"events,omitempty"`
	// Scale multiplies round counts for every capture and replay.
	Scale float64 `json:"scale,omitempty"`
	// MaxTenants bounds co-residency (default 3).
	MaxTenants int `json:"max_tenants,omitempty"`
	// Model is the spatial security model the timeline runs under:
	// "IRONHIDE" (default; budgeted resizes with purges) or "Insecure"
	// (free resizes, no purges — the baseline the attack tests indict).
	Model string `json:"model,omitempty"`
	// ReconfigLimit overrides the kernel's reconfiguration budget per
	// invocation (default: the paper's bound of 1). Negative values are
	// rejected by Validate with ErrReconfigLimit.
	ReconfigLimit int `json:"reconfig_limit,omitempty"`
	// ReconfigPolicy names the policy that decides when a demanded resize
	// is actually attempted: "always" (default: any target change),
	// "hysteresis" (only shifts that are large and sustained), or
	// "costaware" (only when the projected completion gain beats the
	// measured purge stall). See NewReconfigPolicy.
	ReconfigPolicy string `json:"reconfig_policy,omitempty"`
	// Timeline, when non-empty, replaces the generated event schedule.
	Timeline []Event `json:"timeline,omitempty"`
	// CoTenancy space-shares the secure cluster instead of time-sharing
	// it: each phase partitions the machine between the resident tenants
	// under the packing Policy (via the joint scheduler) and replays all
	// their traces simultaneously on one machine, measuring the real
	// interference through the shared L2 slices, memory controllers, and
	// mesh links. Requires the IRONHIDE model.
	CoTenancy bool `json:"cotenancy,omitempty"`
	// Policy names the packing policy co-tenancy phases partition with:
	// best-fit, interference-aware (default), or fairness-floor.
	Policy string `json:"policy,omitempty"`
}

func (s Spec) seed() int64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

func (s Spec) scale() float64 {
	if s.Scale <= 0 {
		return 1
	}
	return s.Scale
}

func (s Spec) events() int {
	if s.Events <= 0 {
		return 6
	}
	return s.Events
}

func (s Spec) maxTenants() int {
	if s.MaxTenants <= 0 {
		return 3
	}
	return s.MaxTenants
}

func (s Spec) pool() []string {
	if len(s.Apps) > 0 {
		return s.Apps
	}
	return []string{"aes-query", "tc-graph", "sssp-graph"}
}

// Pool returns the effective application pool: Apps when set, otherwise
// the default mix. The fleet router uses it to derive a routing key for
// scenario requests.
func (s Spec) Pool() []string { return s.pool() }

func (s Spec) model() string {
	if s.Model == "" {
		return "IRONHIDE"
	}
	return s.Model
}

func (s Spec) policy() string {
	if s.Policy == "" {
		return "interference-aware"
	}
	return s.Policy
}

// ErrReconfigLimit marks a Spec whose ReconfigLimit is negative. The
// engine applies only positive overrides (zero selects the paper's
// default budget of 1), so before this check a caller passing a negative
// limit to forbid resizes silently ran with the default budget instead.
var ErrReconfigLimit = errors.New("scenario: reconfig_limit must be >= 0 (0 selects the paper's default budget of 1; resizes cannot be forbidden by a negative budget)")

// ValidateModel checks that a model name can host a multi-tenant
// timeline: only the spatial models qualify (empty selects the default).
// The service's fail-fast validation and the engine share this check.
func ValidateModel(name string) error {
	if name == "" || strings.EqualFold(name, "IRONHIDE") || strings.EqualFold(name, "Insecure") {
		return nil
	}
	return fmt.Errorf("scenario: model %q cannot host a multi-tenant timeline (want IRONHIDE or Insecure; temporal models time-share the whole machine)", name)
}

// Validate checks everything about a Spec that can be rejected without
// simulating: the model, the application pool, and — for an explicit
// timeline — every event's kind, application, residency transition,
// factor, and the tenant bound. Run performs the same checks, but a
// front end (the HTTP service) calls this first so client mistakes fail
// fast as bad requests instead of surfacing mid-simulation.
func (s Spec) Validate() error {
	if err := ValidateModel(s.Model); err != nil {
		return err
	}
	if s.ReconfigLimit < 0 {
		return fmt.Errorf("%w (got %d)", ErrReconfigLimit, s.ReconfigLimit)
	}
	if _, err := NewReconfigPolicy(s.ReconfigPolicy); err != nil {
		return err
	}
	for _, alias := range s.Apps {
		if _, err := apps.Find(alias); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if s.Policy != "" && !s.CoTenancy {
		return fmt.Errorf("scenario: packing policy %q requires cotenancy", s.Policy)
	}
	if s.CoTenancy {
		if !strings.EqualFold(s.model(), "IRONHIDE") {
			return fmt.Errorf("scenario: co-tenancy space-shares the secure cluster and requires the IRONHIDE model, not %q", s.model())
		}
		if _, err := sched.PolicyByName(s.Policy); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	resident := map[string]bool{}
	for i, ev := range s.Timeline {
		if _, err := apps.Find(ev.App); err != nil {
			return fmt.Errorf("scenario: timeline event %d: %w", i, err)
		}
		switch ev.Kind {
		case Arrive:
			if resident[ev.App] {
				return fmt.Errorf("scenario: timeline event %d: tenant %s is already resident", i, ev.App)
			}
			if len(resident) >= s.maxTenants() {
				return fmt.Errorf("scenario: timeline event %d: machine is full (%d tenants)", i, len(resident))
			}
			resident[ev.App] = true
		case Depart:
			if !resident[ev.App] {
				return fmt.Errorf("scenario: timeline event %d: tenant %s is not resident", i, ev.App)
			}
			delete(resident, ev.App)
		case LoadShift:
			if !resident[ev.App] {
				return fmt.Errorf("scenario: timeline event %d: tenant %s is not resident", i, ev.App)
			}
			if ev.Factor <= 0 {
				return fmt.Errorf("scenario: timeline event %d: load-shift factor %g must be positive", i, ev.Factor)
			}
		default:
			return fmt.Errorf("scenario: timeline event %d: unknown event kind %q", i, ev.Kind)
		}
	}
	return nil
}

// Options tune one engine run without changing its measurements.
type Options struct {
	// Workers bounds the per-phase tenant-run fan-out (<=1 sequential).
	// Results are identical at any worker count.
	Workers int
	// TraceFor fetches (or captures) the trace of one application at the
	// given scale — the service wires its LRU trace cache here so phases
	// reuse per-app traces across scenarios. Nil captures locally, memoized
	// per run.
	TraceFor func(entry apps.Entry, scale float64) (*trace.Trace, error)
	// Sink receives typed phase events as the timeline unfolds (nil =
	// no emission). The streamed /v1/scenario endpoint wires its NDJSON/
	// SSE framing here. Calls are synchronous from the engine's phase
	// loop in a deterministic order; they do not change any measurement.
	Sink Sink
}

func (o Options) workers() int {
	if o.Workers <= 1 {
		return 1
	}
	return o.Workers
}

// Generate builds the seeded event schedule for the spec: the first event
// always admits a tenant, and later steps arrive, depart, or load-shift
// with seeded choices while keeping at least one tenant resident.
func Generate(spec Spec) []Event {
	rng := rand.New(rand.NewSource(spec.seed()))
	pool := spec.pool()
	var timeline []Event
	var resident []string
	available := func() []string {
		var out []string
		for _, a := range pool {
			if !contains(resident, a) {
				out = append(out, a)
			}
		}
		return out
	}
	factors := []float64{0.5, 1.5, 2}
	for i := 0; i < spec.events(); i++ {
		avail := available()
		roll := rng.Intn(10)
		switch {
		case len(resident) == 0, roll < 4 && len(resident) < spec.maxTenants() && len(avail) > 0:
			app := avail[rng.Intn(len(avail))]
			timeline = append(timeline, Event{Kind: Arrive, App: app})
			resident = append(resident, app)
		case roll < 6 && len(resident) > 1:
			i := rng.Intn(len(resident))
			timeline = append(timeline, Event{Kind: Depart, App: resident[i]})
			resident = append(resident[:i:i], resident[i+1:]...)
		default:
			app := resident[rng.Intn(len(resident))]
			timeline = append(timeline, Event{Kind: LoadShift, App: app, Factor: factors[rng.Intn(len(factors))]})
		}
	}
	return timeline
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// tenant is one resident application on the shared machine.
type tenant struct {
	entry   apps.Entry
	tr      *trace.Trace
	weight  float64
	binding int // preferred secure-cluster size from the binding search
	// pageLo/pageHi bracket the tenant's pages on the shared machine, so
	// departure can unmap them and resizes keep re-homing only the
	// resident footprint.
	pageLo, pageHi uint64
}

// engine carries the shared-machine state of one run.
type engine struct {
	cfg      arch.Config
	spec     Spec
	opts     Options
	ironhide bool

	m       *sim.Machine
	ih      *core.IronHide
	k       *kernel.Kernel
	auth    *driver.Authority
	binding int

	// policy gates resize attempts; lastPurge and lastPhase feed its
	// cost/benefit inputs (the most recent authorized resize's purge bill
	// and the previous phase's completion total).
	policy    ReconfigPolicy
	lastPurge int64
	lastPhase int64

	tenants []*tenant
	traces  map[string]*trace.Trace // local memo when Options.TraceFor is nil
}

// Run executes the scenario and returns its report.
func Run(cfg arch.Config, spec Spec, opts Options) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	e, err := newEngine(cfg, spec, opts)
	if err != nil {
		return nil, err
	}
	// The report carries no reference to the machine, so it goes back to
	// the driver's pool however the run ends.
	defer driver.ReleaseMachine(e.m)
	timeline := spec.Timeline
	if len(timeline) == 0 {
		timeline = Generate(spec)
	}
	rep := &Report{
		Name:       "scenario",
		Title:      "Multi-tenant dynamic-reconfiguration timeline",
		Model:      e.modelName(),
		Seed:       spec.seed(),
		Scale:      spec.scale(),
		Apps:       append([]string(nil), spec.pool()...),
		MaxTenants: spec.maxTenants(),
	}
	if spec.CoTenancy {
		rep.CoTenancy = true
		rep.Policy = spec.policy()
	}
	if spec.ReconfigPolicy != "" {
		rep.ReconfigPolicy = e.policy.Name()
	}
	for i, ev := range timeline {
		ph, err := e.phase(i, ev)
		if err != nil {
			return nil, fmt.Errorf("scenario: phase %d (%s): %w", i, ev, err)
		}
		rep.Phases = append(rep.Phases, *ph)
		rep.TotalCycles += ph.PhaseCycles
		rep.TotalPurgeCycles += ph.PurgeCycles + ph.CtxSwitchCycles
		switch {
		case ph.BudgetDenied:
			rep.Denied++
		case ph.PolicyDeferred:
			rep.Deferred++
		case ph.CoresMoved > 0:
			rep.Reconfigs++
		}
		for _, run := range ph.Runs {
			rep.RouteViolations += run.RouteViolations
		}
		rep.RouteViolations += ph.CoRouteViolations
		e.emit(StreamEvent{Type: EvPhaseComplete, Phase: i, Detail: ph})
	}
	return rep, nil
}

// Grid runs one scenario per spec, fanned out over the runner's worker
// pool — the scenario-grid sweep the CLI and the benchmarks use to
// compare the same timeline across enclave models or seeds. Results are
// ordered by spec index and identical at any worker count.
func Grid(cfg arch.Config, specs []Spec, workers int) ([]*Report, error) {
	return runner.Map(workers, specs, func(_ int, spec Spec) (*Report, error) {
		return Run(cfg, spec, Options{})
	})
}

func newEngine(cfg arch.Config, spec Spec, opts Options) (*engine, error) {
	e := &engine{cfg: cfg, spec: spec, opts: opts, traces: map[string]*trace.Trace{}}
	if err := ValidateModel(spec.Model); err != nil {
		return nil, err
	}
	pol, err := NewReconfigPolicy(spec.ReconfigPolicy)
	if err != nil {
		return nil, err
	}
	e.policy = pol
	e.ironhide = strings.EqualFold(spec.model(), "IRONHIDE")
	m, err := driver.AcquireMachine(cfg)
	if err != nil {
		return nil, err
	}
	e.m = m
	e.binding = cfg.Cores() / 2
	if e.ironhide {
		e.ih = core.New(e.binding)
		if err := e.ih.Configure(m); err != nil {
			return nil, err
		}
		auth, err := driver.NewAuthority(spec.seed())
		if err != nil {
			return nil, err
		}
		e.auth = auth
		e.k = auth.NewKernel()
		if spec.ReconfigLimit > 0 {
			e.k.SetReconfigLimit(spec.ReconfigLimit)
		}
	} else {
		if err := (enclave.Insecure{}).Configure(m); err != nil {
			return nil, err
		}
		// Install the starting boundary (a fresh machine boots with an
		// empty secure split), so the first resize's moved-core count is
		// measured against the same cores/2 start the report claims.
		split, err := noc.NewSplit(e.binding, cfg)
		if err != nil {
			return nil, err
		}
		m.SetSplit(split, false)
	}
	return e, nil
}

func (e *engine) modelName() string {
	if e.ironhide {
		return "IRONHIDE"
	}
	return "Insecure"
}

// searchModel returns a fresh spatial model instance for binding search
// and phase replays (models carry per-run mutable state).
func (e *engine) searchModel() enclave.Model {
	if e.ironhide {
		return core.New(e.cfg.Cores() / 2)
	}
	return enclave.Insecure{}
}

func (e *engine) traceFor(entry apps.Entry) (*trace.Trace, error) {
	if e.opts.TraceFor != nil {
		return e.opts.TraceFor(entry, e.spec.scale())
	}
	if tr, ok := e.traces[entry.Alias]; ok {
		return tr, nil
	}
	tr, err := driver.CaptureTrace(e.cfg, entry.Factory, driver.Options{Scale: e.spec.scale()})
	if err != nil {
		return nil, err
	}
	e.traces[entry.Alias] = tr
	return tr, nil
}

func (e *engine) findTenant(alias string) (int, *tenant) {
	for i, t := range e.tenants {
		if t.entry.Alias == alias {
			return i, t
		}
	}
	return -1, nil
}

// phase applies one event and measures the resulting phase.
func (e *engine) phase(index int, ev Event) (*Phase, error) {
	ph := &Phase{Index: index, Event: ev.String(), BindingFrom: e.binding}
	newInvocation := false
	switch ev.Kind {
	case Arrive:
		if _, t := e.findTenant(ev.App); t != nil {
			return nil, fmt.Errorf("tenant %s is already resident", ev.App)
		}
		if len(e.tenants) >= e.spec.maxTenants() {
			return nil, fmt.Errorf("machine is full (%d tenants)", len(e.tenants))
		}
		entry, err := apps.Find(ev.App)
		if err != nil {
			return nil, err
		}
		tr, err := e.traceFor(entry)
		if err != nil {
			return nil, err
		}
		app := tr.NewApp()
		if e.ironhide {
			// Admission: the arriving secure process is attested into the
			// shared secure kernel before touching the secure cluster, and
			// the incumbent's state is scrubbed by a context-switch purge.
			if err := e.auth.Admit(e.k, app); err != nil {
				return nil, err
			}
			if len(e.tenants) > 0 {
				ph.CtxSwitchCycles += e.ih.ContextSwitchSecure(e.m)
			}
		}
		// Multi-app co-residency: the tenant's pages live on the shared
		// machine, so later resizes re-home (and purge) real footprints.
		pageLo := uint64(e.m.TotalPages())
		if err := driver.InitTenant(e.m, app); err != nil {
			return nil, err
		}
		pageHi := uint64(e.m.TotalPages())
		sr, err := driver.SearchTrace(e.cfg, e.searchModel(), tr, driver.Options{
			Scale: e.spec.scale(), Seed: runner.SeedFor(e.spec.seed(), index),
		})
		if err != nil {
			return nil, err
		}
		e.tenants = append(e.tenants, &tenant{
			entry: entry, tr: tr, weight: 1, binding: sr.SecureCores,
			pageLo: pageLo, pageHi: pageHi,
		})
		e.emit(StreamEvent{Type: EvTenantArrive, Phase: index, App: ev.App, Tenants: e.residentAliases()})
		newInvocation = true
	case Depart:
		i, t := e.findTenant(ev.App)
		if t == nil {
			return nil, fmt.Errorf("tenant %s is not resident", ev.App)
		}
		e.tenants = append(e.tenants[:i:i], e.tenants[i+1:]...)
		// The kernel tears down the departed address space, so later
		// resizes re-home only the resident footprint — no ghost tenants.
		e.m.RetirePages(t.pageLo, t.pageHi)
		if e.ironhide {
			// The departing tenant's secure-cluster state is purged before
			// any successor may observe it.
			ph.CtxSwitchCycles += e.ih.ContextSwitchSecure(e.m)
		}
		e.emit(StreamEvent{Type: EvTenantDepart, Phase: index, App: ev.App, Tenants: e.residentAliases()})
		newInvocation = true
	case LoadShift:
		_, t := e.findTenant(ev.App)
		if t == nil {
			return nil, fmt.Errorf("tenant %s is not resident", ev.App)
		}
		if ev.Factor <= 0 {
			return nil, fmt.Errorf("load-shift factor %g must be positive", ev.Factor)
		}
		t.weight *= ev.Factor
		// Load is bounded in both directions: a tenant neither vanishes nor
		// grows without limit, so compounding shifts stay meaningful.
		if t.weight < 0.25 {
			t.weight = 0.25
		}
		if t.weight > 4 {
			t.weight = 4
		}
		e.emit(StreamEvent{Type: EvLoadShift, Phase: index, App: ev.App, Factor: ev.Factor, Tenants: e.residentAliases()})
	default:
		return nil, fmt.Errorf("unknown event kind %q", ev.Kind)
	}

	if e.ironhide && newInvocation {
		// Arrivals and departures open a new interactive-application
		// invocation, refreshing the kernel's reconfiguration budget.
		e.k.NewInvocation()
	}
	if err := e.resize(ph); err != nil {
		return nil, err
	}
	if ph.PurgeCycles+ph.CtxSwitchCycles > 0 {
		e.emit(StreamEvent{Type: EvPurgeCost, Phase: index,
			PurgeCycles: ph.PurgeCycles, CtxSwitchCycles: ph.CtxSwitchCycles})
	}
	if err := e.runTenants(index, ph); err != nil {
		return nil, err
	}
	ph.PhaseCycles = ph.PurgeCycles + ph.CtxSwitchCycles
	var completions int64
	if ph.CoRunCycles > 0 {
		// Space-shared tenants run simultaneously: the phase lasts as long
		// as the co-run's shared horizon, not the sum of the completions.
		completions = ph.CoRunCycles
	} else {
		for _, r := range ph.Runs {
			completions += r.CompletionCycles
		}
	}
	ph.PhaseCycles += completions
	// Feed the next phase's policy decision: the completion total this
	// phase measured at the installed binding.
	e.lastPhase = completions
	return ph, nil
}

// residentAliases snapshots the resident tenant aliases for an event.
func (e *engine) residentAliases() []string {
	out := make([]string, len(e.tenants))
	for i, t := range e.tenants {
		out[i] = t.entry.Alias
	}
	return out
}

// target combines the resident tenants' demands into the cluster size
// the mix wants: each tenant demands its searched preferred binding
// scaled by its load weight (a load spike wants proportionally more
// secure cores), and the cluster sizes to the mean demand, clamped so
// both clusters keep at least one core.
func (e *engine) target() int {
	if len(e.tenants) == 0 {
		return e.binding
	}
	var sum float64
	for _, t := range e.tenants {
		demand := t.weight * float64(t.binding)
		// A single tenant cannot demand past the machine: clamp before
		// averaging so one spiking tenant does not evict the whole
		// insecure cluster.
		if demand > float64(e.cfg.Cores()-1) {
			demand = float64(e.cfg.Cores() - 1)
		}
		if demand < 1 {
			demand = 1
		}
		sum += demand
	}
	target := int(sum/float64(len(e.tenants)) + 0.5)
	lo, hi := e.bounds()
	if target < lo {
		target = lo
	}
	if target > hi {
		target = hi
	}
	return target
}

// bounds is the range of secure-cluster sizes the resident mix can run
// at: both clusters keep a core, and space sharing needs a core per
// tenant in each cluster.
func (e *engine) bounds() (lo, hi int) {
	if e.spec.CoTenancy {
		return len(e.tenants), e.cfg.Cores() - len(e.tenants)
	}
	return 1, e.cfg.Cores() - 1
}

// resize installs the tenant mix's target binding on the shared machine.
// Under IRONHIDE the resize is a dynamic-hardware-isolation event: the
// kernel's budget authorizes it (arrivals and departures open a new
// invocation; load shifts spend the current one, so a second resize
// within an invocation is refused), and the moved cores' private state
// plus the re-homed pages are purged, stalling the phase. The insecure
// baseline just moves the boundary for free — the leakage the attack
// tests demonstrate.
func (e *engine) resize(ph *Phase) error {
	target := e.target()
	ph.BindingTo = e.binding
	if target == e.binding {
		return nil
	}
	// The reconfiguration policy decides whether the demanded resize is
	// even attempted; a deferral spends no budget and purges nothing. A
	// binding outside the mix's bounds would leave a resident without a
	// core, so the policy cannot defer that resize: it is forced.
	forced := false
	if !e.policy.Decide(PolicyInput{
		Phase:           ph.Index,
		Current:         e.binding,
		Target:          target,
		LastPurgeCycles: e.lastPurge,
		LastPhaseCycles: e.lastPhase,
	}) {
		if lo, hi := e.bounds(); e.binding < lo || e.binding > hi {
			forced = true
		} else {
			ph.PolicyDeferred = true
			e.emit(StreamEvent{Type: EvResizeDenied, Phase: ph.Index, Reason: DeniedPolicy,
				BindingFrom: e.binding, BindingTo: target})
			return nil
		}
	}
	if e.ironhide {
		if err := e.k.AuthorizeReconfig(); err != nil {
			if err == kernel.ErrReconfigBudget {
				ph.BudgetDenied = true
				e.emit(StreamEvent{Type: EvResizeDenied, Phase: ph.Index, Reason: DeniedBudget,
					BindingFrom: e.binding, BindingTo: target})
				return nil
			}
			return err
		}
		rr, err := e.ih.Reconfigure(e.m, target)
		if err != nil {
			return err
		}
		ph.CoresMoved = rr.CoresMoved
		ph.PagesMoved = rr.PagesMoved
		ph.PurgeCycles = rr.Cycles
		e.lastPurge = rr.Cycles
	} else {
		split, err := noc.NewSplit(target, e.cfg)
		if err != nil {
			return err
		}
		old := e.m.Split()
		ph.CoresMoved = len(old.Moved(split))
		e.m.SetSplit(split, false)
	}
	from := e.binding
	e.binding = target
	ph.BindingTo = target
	ev := StreamEvent{Type: EvResizeAuthorized, Phase: ph.Index,
		BindingFrom: from, BindingTo: target,
		CoresMoved: ph.CoresMoved, PagesMoved: ph.PagesMoved}
	if forced {
		ph.ForcedResize = true
		ev.Reason = ResizeForced
	}
	e.emit(ev)
	return nil
}

// runTenants replays every resident tenant at the installed binding and
// records their completions. Replays run on fresh machines (the shared
// machine carries only the reconfiguration state), fanned out over the
// worker pool with per-(phase, tenant) seeds, so results are identical at
// any worker count.
func (e *engine) runTenants(index int, ph *Phase) error {
	for _, t := range e.tenants {
		ph.Tenants = append(ph.Tenants, t.entry.Alias)
	}
	if e.spec.CoTenancy && len(e.tenants) > 0 {
		return e.runCoTenants(index, ph)
	}
	type job struct {
		t    *tenant
		seed int64
	}
	jobs := make([]job, len(e.tenants))
	for i, t := range e.tenants {
		jobs[i] = job{t: t, seed: runner.SeedFor(e.spec.seed(), index*64+i+1)}
	}
	runs, err := runner.Map(e.opts.workers(), jobs, func(_ int, j job) (TenantRun, error) {
		res, err := driver.RunTrace(e.cfg, e.searchModel(), j.t.tr, driver.Options{
			Scale:            e.spec.scale(),
			FixedSecureCores: e.binding,
			WaiveReconfig:    true, // the shared machine already paid the resize
			Seed:             j.seed,
		})
		if err != nil {
			return TenantRun{}, err
		}
		return TenantRun{
			App:              j.t.entry.Alias,
			Weight:           j.t.weight,
			Seed:             j.seed,
			SecureCores:      res.SecureCores,
			CompletionCycles: res.CompletionCycles,
			RouteViolations:  res.RouteViolations,
		}, nil
	})
	if err != nil {
		return err
	}
	ph.Runs = runs
	return nil
}

// runCoTenants measures a co-tenancy phase: the joint scheduler's packing
// policy partitions the machine between the resident tenants (demand =
// each tenant's searched binding scaled by its load weight), every
// tenant's trace replays simultaneously on one machine, and each tenant
// gets a single-active baseline co-run on an identically initialized
// machine so the report carries measured slowdowns. The fully active
// co-run and the baselines fan out over the worker pool; results are
// identical at any worker count.
func (e *engine) runCoTenants(index int, ph *Phase) error {
	pols, err := sched.PolicyByName(e.spec.policy())
	if err != nil {
		return err
	}
	pol := pols[0]
	res, err := sched.MachineResources(e.cfg, e.binding)
	if err != nil {
		return err
	}
	n := len(e.tenants)
	demands := make([]int, n)
	schedTenants := make([]sched.Tenant, n)
	for i, t := range e.tenants {
		d := int(t.weight*float64(t.binding) + 0.5)
		if d < 1 {
			d = 1
		}
		demands[i] = d
		schedTenants[i] = sched.Tenant{Name: t.entry.Alias, Trace: t.tr}
	}
	part, err := pol.Partition(res, demands)
	if err != nil {
		return err
	}
	coTenants := part.CoTenants(schedTenants)

	// Job 0 is the fully active co-run; job i+1 is tenant i's baseline.
	jobs := make([]int, n+1)
	for i := range jobs {
		jobs[i] = i - 1
	}
	results, err := runner.Map(e.opts.workers(), jobs, func(_ int, active int) (*driver.CoRunResult, error) {
		opts := driver.CoRunOptions{
			Scale:       e.spec.scale(),
			SecureCores: e.binding,
			Seed:        e.spec.seed(),
		}
		if active >= 0 {
			opts.Active = make([]bool, n)
			opts.Active[active] = true
		}
		return driver.CoRunTraces(e.cfg, coTenants, opts)
	})
	if err != nil {
		return err
	}
	co := results[0]
	ph.Policy = pol.Name()
	ph.CoRunCycles = co.TotalCycles
	ph.CoRouteViolations = co.RouteViolations
	for i, t := range e.tenants {
		solo := results[i+1].Tenants[i].CompletionCycles
		run := TenantRun{
			App:              t.entry.Alias,
			Weight:           t.weight,
			Seed:             runner.SeedFor(e.spec.seed(), index*64+i+1),
			SecureCores:      co.Tenants[i].SecureCores,
			CompletionCycles: co.Tenants[i].CompletionCycles,
			SoloCycles:       solo,
			LinkConflicts:    co.Tenants[i].LinkConflicts,
		}
		if solo > 0 {
			run.Slowdown = float64(run.CompletionCycles) / float64(solo)
		}
		ph.Runs = append(ph.Runs, run)
	}
	return nil
}
