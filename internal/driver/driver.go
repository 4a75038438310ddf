// Package driver executes one interactive application under one security
// model on a fresh machine and reports the measurements the paper's
// figures are built from: completion time and its breakdown (execution vs
// enclave entry/exit vs purging vs reconfiguration), private L1 and shared
// L2 miss rates, the chosen cluster binding, and the isolation counters.
//
// Temporal models (SGX-like, multicore MI6) time-share the cores: each
// interaction round serializes the insecure process, the enclave entry
// protocol, the secure process, and the exit protocol. Spatial models
// (the insecure baseline's OS co-scheduling and IRONHIDE's clusters) run
// the two processes concurrently as a two-stage pipeline coupled through
// the shared IPC buffer.
package driver

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"ironhide/internal/arch"
	"ironhide/internal/core"
	"ironhide/internal/enclave"
	"ironhide/internal/heuristic"
	"ironhide/internal/ipc"
	"ironhide/internal/kernel"
	"ironhide/internal/noc"
	"ironhide/internal/sim"
	"ironhide/internal/trace"
	"ironhide/internal/workload"
)

// AppFactory builds a fresh instance of an application (fresh process
// state, same seeds) for CaptureTrace to record.
type AppFactory func() *workload.App

// Options tune one run.
type Options struct {
	// Scale multiplies round counts (1.0 = the app's defaults).
	Scale float64
	// FixedSecureCores pins the cluster binding for spatial models,
	// skipping the search (0 = search).
	FixedSecureCores int
	// Optimal replaces the gradient heuristic with the exhaustive oracle
	// and waives the search/reconfiguration overheads (Figure 8's
	// "Optimal").
	Optimal bool
	// OptimalStride coarsens the exhaustive search (default 1).
	OptimalStride int
	// WaiveReconfig drops the one-time reconfiguration overhead even for a
	// fixed binding (the experiment harness uses it to model Figure 8's
	// overhead-free Optimal with an externally computed binding).
	WaiveReconfig bool
	// Seed makes the run fully reproducible: a non-zero seed derives the
	// attestation keypair deterministically instead of reading entropy.
	// Grids assign seeds from grid position (runner.SeedFor) so a sweep
	// yields identical results at any worker count.
	Seed int64
	// SearchWorkers bounds the worker pool the exhaustive Optimal search
	// evaluates candidate bindings on (<= 1 sequential). Each probe holds
	// its own arena machine, and results are deterministic at any worker
	// count.
	SearchWorkers int
	// Interrupt, when non-nil, is polled at capture/replay round
	// boundaries and before every search probe; a non-nil return aborts
	// the run with that error. The serving layer points it at the
	// request context so a client deadline actually stops the simulation
	// instead of letting abandoned work burn cores. Determinism is
	// unaffected: a run either completes (identical to an uninterrupted
	// one) or returns the interrupt error.
	Interrupt func() error
}

// poll runs an Interrupt hook (nil = never interrupt).
func poll(interrupt func() error) error {
	if interrupt == nil {
		return nil
	}
	return interrupt()
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

// Result is the outcome of one (app, model) run.
type Result struct {
	App   string
	Class workload.Class
	Model string

	CompletionCycles int64
	EntryExitCycles  int64 // SGX-style protocol constants (+pipeline flush)
	PurgeCycles      int64 // MI6-style strong-isolation purges
	ReconfigCycles   int64 // IRONHIDE one-time dynamic isolation (amortized)
	SearchProbes     int

	Rounds       int
	Interactions int64
	SecureCores  int

	L1Accesses, L1Misses int64
	L2Accesses, L2Misses int64

	RouteViolations int64
	BlockedAccesses int64
}

// ComputeCycles returns the execution-time component of completion.
func (r *Result) ComputeCycles() int64 {
	return r.CompletionCycles - r.EntryExitCycles - r.PurgeCycles - r.ReconfigCycles
}

// L1MissRate returns the aggregate private-cache miss rate.
func (r *Result) L1MissRate() float64 {
	if r.L1Accesses == 0 {
		return 0
	}
	return float64(r.L1Misses) / float64(r.L1Accesses)
}

// L2MissRate returns the aggregate shared-cache miss rate.
func (r *Result) L2MissRate() float64 {
	if r.L2Accesses == 0 {
		return 0
	}
	return float64(r.L2Misses) / float64(r.L2Accesses)
}

// Run executes the application under the model and returns the result.
//
// Every timed run replays: Run records the application once and replays
// the captured operation stream for every heuristic or Optimal probe and
// for the measured run — the payload (graph relaxations, neural forward
// passes, AES rounds) executes exactly once per Run instead of once per
// probe.
func Run(cfg arch.Config, model enclave.Model, factory AppFactory, opts Options) (*Result, error) {
	tr, err := CaptureTrace(cfg, factory, opts)
	if err != nil {
		return nil, err
	}
	return RunTrace(cfg, model, tr, opts)
}

// RunTrace executes a previously captured trace under the model — the
// path grids use to share one capture across the whole (model × options)
// axis, since the recorded address stream is model-independent. The
// trace must have been captured at the same Options.Scale.
func RunTrace(cfg arch.Config, model enclave.Model, tr *trace.Trace, opts Options) (*Result, error) {
	if err := checkScale(tr, opts.scale(), "replay"); err != nil {
		return nil, err
	}
	return runModel(cfg, model, tr.NewApp, opts)
}

// runModel drives the model's way of sharing the machine: space-shared
// for an enclave.Spatial model (the insecure baseline, IRONHIDE),
// time-shared otherwise (SGX-like, MI6). fresh yields a fresh,
// already-scaled application instance per call: profiling probes and the
// measured run must not share warmed state. A spatial model's binding
// search runs before the measured run acquires its machine, so the run
// holds one machine at a time.
func runModel(cfg arch.Config, model enclave.Model, fresh func() *workload.App, opts Options) (*Result, error) {
	app := fresh()
	if err := app.Validate(); err != nil {
		return nil, err
	}
	spatial, ok := model.(enclave.Spatial)
	var sr SearchResult
	if ok {
		var err error
		if sr, err = chooseBinding(cfg, spatial, fresh, opts); err != nil {
			return nil, err
		}
	}
	m, err := AcquireMachine(cfg)
	if err != nil {
		return nil, err
	}
	defer ReleaseMachine(m)
	if !ok {
		return runTemporal(m, model, app, opts)
	}
	return runSpatial(m, spatial, app, opts, sr)
}

// checkScale rejects using a trace at a scale other than its capture's:
// round counts and streams would not line up.
func checkScale(tr *trace.Trace, scale float64, use string) error {
	if tr.Scale != scale {
		return fmt.Errorf("driver: trace captured at scale %g cannot %s at scale %g", tr.Scale, use, scale)
	}
	return nil
}

// CaptureTrace records one full execution of the application at
// opts.Scale: enough rounds for the longest consumer (the measured run or
// the longest profiling probe), captured on a scratch machine. The
// recorded stream is independent of the model, the binding, and the gang
// sizes, so one capture serves every probe and every model.
func CaptureTrace(cfg arch.Config, factory AppFactory, opts Options) (*trace.Trace, error) {
	app := factory().Scaled(opts.scale())
	if err := app.Validate(); err != nil {
		return nil, err
	}
	rec := trace.NewRecorder(app, opts.scale())
	recApp := rec.App(app)
	m, err := AcquireMachine(cfg)
	if err != nil {
		return nil, err
	}
	defer ReleaseMachine(m)
	if err := (enclave.Insecure{}).Place(m, cfg.Cores()/2); err != nil {
		return nil, err
	}
	ring, err := initApp(m, recApp)
	if err != nil {
		return nil, err
	}
	rounds := app.Warmup + app.Rounds
	if pw, pr := profileLen(app); pw+pr > rounds {
		rounds = pw + pr
	}
	sec, ins := clusterCores(m, recApp)
	// Capture needs the event sequence, not the cycle model: the recorded
	// stream is timing-independent, so run the payload in lite-exec mode
	// (flat L1-hit charges, no machine walk).
	m.SetLiteExec(true)
	p := newPipeline(m, ring, recApp, sec, ins, 0, rounds)
	if err := p.run(opts.Interrupt); err != nil {
		return nil, err
	}
	return rec.Trace(), nil
}

// profileLen returns the warmup and measured round counts of one
// profiling probe.
func profileLen(app *workload.App) (warm, rounds int) {
	rounds = app.ProfileRounds
	if rounds <= 0 {
		rounds = 8
	}
	return rounds / 4, rounds
}

// attest admits the secure process with the secure kernel before it may
// run under a strong-isolation model. A non-zero seed derives the keypair
// deterministically (per-app, so equal seeds on different apps still get
// distinct keys); zero falls back to the system entropy source.
func attest(app *workload.App, seed int64) (*kernel.Kernel, error) {
	a, err := appAuthority(app, seed)
	if err != nil {
		return nil, err
	}
	k := a.NewKernel()
	if err := a.Admit(k, app); err != nil {
		return nil, err
	}
	return k, nil
}

// appAuthority builds the per-app signing authority a single-app run
// attests with.
func appAuthority(app *workload.App, seed int64) (*Authority, error) {
	if seed == 0 {
		return NewAuthority(0)
	}
	return derivedAuthority(seed, app.Name), nil
}

// derivedAuthority derives a deterministic authority from (seed, label).
func derivedAuthority(seed int64, label string) *Authority {
	var material [sha256.Size]byte
	binary.LittleEndian.PutUint64(material[:8], uint64(seed))
	copy(material[8:], label)
	digest := sha256.Sum256(material[:])
	priv := ed25519.NewKeyFromSeed(digest[:])
	return &Authority{pub: priv.Public().(ed25519.PublicKey), priv: priv}
}

// Authority is a signing authority for secure-process attestation. The
// multi-tenant scenario engine runs one authority per timeline: every
// arriving application's secure process is measured, signed by the
// authority, and attested into the shared secure kernel before it may be
// admitted to the secure cluster.
type Authority struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewAuthority builds a signing authority. A non-zero seed derives the
// keypair deterministically (the scenario engine needs bit-reproducible
// timelines); zero reads the system entropy source.
func NewAuthority(seed int64) (*Authority, error) {
	if seed != 0 {
		return derivedAuthority(seed, "ironhide-authority"), nil
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &Authority{pub: pub, priv: priv}, nil
}

// NewKernel builds a secure kernel trusting this authority.
func (a *Authority) NewKernel() *kernel.Kernel { return kernel.New(a.pub) }

// Admit measures the application's secure process, signs the measurement,
// and attests it into the kernel — the admission step every tenant of a
// multi-tenant timeline passes through before entering the secure cluster.
func (a *Authority) Admit(k *kernel.Kernel, app *workload.App) error {
	image := []byte(app.Secure.Name() + "/" + app.Name)
	cert := kernel.Sign(a.priv, kernel.Measure(app.Secure.Name(), image))
	return k.Attest(app.Secure.Name(), image, cert)
}

// InitTenant initializes both processes' address spaces of one application
// on an already-configured machine — the multi-app co-residency setup the
// scenario engine uses to populate a shared machine with every resident
// tenant's pages, so that cluster resizes re-home (and purge) state
// proportional to the real co-resident footprint. Unlike initApp it builds
// no IPC ring: phase completions are measured by the replay path on
// machines the driver acquires from its arena, while the shared machine
// carries the reconfiguration costs.
func InitTenant(m *sim.Machine, app *workload.App) error {
	if err := app.Validate(); err != nil {
		return err
	}
	app.Insecure.Init(m, m.NewSpace(app.Insecure.Name(), arch.Insecure))
	app.Secure.Init(m, m.NewSpace(app.Secure.Name(), arch.Secure))
	return nil
}

// initApp initializes both processes' address spaces and builds the IPC
// ring in the insecure space: four slots of one payload plus one reply,
// at least a page, line-aligned.
func initApp(m *sim.Machine, app *workload.App) (*ipc.Ring, error) {
	insSpace := m.NewSpace(app.Insecure.Name(), arch.Insecure)
	secSpace := m.NewSpace(app.Secure.Name(), arch.Secure)
	app.Insecure.Init(m, insSpace)
	app.Secure.Init(m, secSpace)
	line := m.Cfg.LineSize
	ringBytes := max(app.PayloadBytes+app.ReplyBytes, 4096)
	ringBytes = (ringBytes + line - 1) / line * line
	return ipc.NewRing(insSpace, line, ringBytes*4)
}

// gangCores returns the first n cores of the list (a process never uses
// more cores than its thread count).
func gangCores(all []arch.CoreID, threads int) []arch.CoreID {
	if threads < len(all) {
		return all[:threads]
	}
	return all
}

func collectStats(m *sim.Machine, r *Result) {
	r.L1Accesses, r.L1Misses = addL1(m, m.AllCores(), r.L1Accesses, r.L1Misses)
	l2 := m.L2().AggregateStats()
	r.L2Accesses = l2.Accesses
	r.L2Misses = l2.Misses
	r.RouteViolations = m.RouteViolations()
	r.BlockedAccesses = m.BlockedAccesses()
}

// addL1 adds the cores' private-cache traffic to the running totals.
func addL1(m *sim.Machine, cores []arch.CoreID, accesses, misses int64) (int64, int64) {
	for _, c := range cores {
		st := m.L1(c).Stats()
		accesses += st.Accesses
		misses += st.Misses
	}
	return accesses, misses
}

func resetStats(m *sim.Machine) {
	resetCores(m, m.AllCores())
	m.L2().ResetStats()
	for _, id := range m.AllMCs() {
		m.MC(id).ResetStats()
	}
}

// resetCores clears the cores' private-cache counters.
func resetCores(m *sim.Machine, cores []arch.CoreID) {
	for _, c := range cores {
		m.L1(c).ResetStats()
	}
}

// runTemporal drives the SGX-like and MI6 models: both processes
// time-share the whole machine, so each round is one serial pass through
// the pipeline with the enclave entry and exit protocols between stages.
func runTemporal(m *sim.Machine, model enclave.Model, app *workload.App, opts Options) (*Result, error) {
	if model.StrongIsolation() {
		if _, err := attest(app, opts.Seed); err != nil {
			return nil, err
		}
	}
	if err := model.Configure(m); err != nil {
		return nil, err
	}
	ring, err := initApp(m, app)
	if err != nil {
		return nil, err
	}
	all := m.AllCores()
	secCores := gangCores(all, app.Secure.Threads())
	p := newPipeline(m, ring, app, secCores, gangCores(all, app.Insecure.Threads()), app.Warmup, app.Rounds)
	p.protocol = model
	if err := p.run(opts.Interrupt); err != nil {
		return nil, err
	}
	res := &Result{App: app.String(), Class: app.Class, Model: model.Name(), Rounds: app.Rounds,
		CompletionCycles: p.completion(), Interactions: p.interactions, SecureCores: len(secCores)}
	if model.StrongIsolation() {
		res.PurgeCycles = p.charged
	} else {
		res.EntryExitCycles = p.charged
	}
	collectStats(m, res)
	return res, nil
}

// pipeline is one application's interaction loop: each round the insecure
// stage runs and sends its payload over the IPC ring, then the secure
// stage receives it, runs, and replies. Space-shared runs overlap round
// r's secure stage with round r+1's insecure stage — a two-stage pipeline
// coupled through the ring.
type pipeline struct {
	m          *sim.Machine
	app        *workload.App
	ring       *ipc.Ring
	gIns, gSec *sim.Group

	// protocol, when set, time-shares the machine under that model: the
	// insecure stage waits for the secure one, and the model's enclave
	// entry and exit protocols bracket the secure stage. charged sums
	// their cycles over the measurement window.
	protocol enclave.Model
	charged  int64
	// open resets whatever the measurement window excludes (nil = every
	// counter on the machine). The window opens right after the last
	// warmup round, or before round 0 when there is none.
	open func()

	warmup, total int
	round         int
	pEnd, cEnd    int64
	measureStart  int64
	interactions  int64
}

// newPipeline builds the gangs of a pipeline of warmup unmeasured rounds
// followed by rounds measured ones.
func newPipeline(m *sim.Machine, ring *ipc.Ring, app *workload.App, sec, ins []arch.CoreID, warmup, rounds int) pipeline {
	gIns := m.NewGroup(arch.Insecure, ins, 0)
	gSec := m.NewGroup(arch.Secure, sec, 0)
	return pipeline{m: m, app: app, ring: ring, gIns: gIns, gSec: gSec, warmup: warmup, total: warmup + rounds}
}

// frontier is the pipeline's progress on the cycle horizon.
func (p *pipeline) frontier() int64 { return max(p.pEnd, p.cEnd) }

func (p *pipeline) done() bool { return p.round >= p.total }

// completion spans the measured rounds.
func (p *pipeline) completion() int64 { return p.frontier() - p.measureStart }

// step runs one interaction round.
func (p *pipeline) step() {
	if p.round == 0 && p.warmup == 0 {
		p.openWindow()
	}
	r, app, serial := p.round, p.app, p.protocol != nil
	start := p.pEnd
	if serial {
		start = p.frontier()
	}
	p.gIns.Restart(start)
	if r > 0 {
		_ = p.ring.Recv(p.gIns.Ctx(0), app.ReplyBytes)
	}
	app.Insecure.Round(p.gIns, r)
	_ = p.ring.Send(p.gIns.Ctx(0), app.PayloadBytes)
	p.pEnd = p.gIns.MaxCycles()

	start = p.frontier()
	if serial {
		start += p.charge(p.protocol.EnterSecure(p.m))
	}
	p.gSec.Restart(start)
	_ = p.ring.Recv(p.gSec.Ctx(0), app.PayloadBytes)
	app.Secure.Round(p.gSec, r)
	_ = p.ring.Send(p.gSec.Ctx(0), app.ReplyBytes)
	p.cEnd = p.gSec.MaxCycles()
	if serial {
		p.cEnd += p.charge(p.protocol.ExitSecure(p.m))
	}

	p.round++
	if p.round > p.warmup {
		p.interactions += 2 // one request, one reply
	}
	if p.round == p.warmup {
		p.openWindow()
	}
}

func (p *pipeline) charge(cycles int64) int64 {
	p.charged += cycles
	return cycles
}

func (p *pipeline) openWindow() {
	p.measureStart = p.frontier()
	p.charged = 0
	if p.open == nil {
		resetStats(p.m)
	} else {
		p.open()
	}
}

// run steps the pipeline through every round, polling interrupt before
// each one; a non-nil return aborts the pipeline mid-run.
func (p *pipeline) run(interrupt func() error) error {
	for !p.done() {
		if err := poll(interrupt); err != nil {
			return err
		}
		p.step()
	}
	return nil
}

// clusterCores gangs each process on its cluster of the installed split.
func clusterCores(m *sim.Machine, app *workload.App) (sec, ins []arch.CoreID) {
	split := m.Split()
	sec = gangCores(split.Cores(noc.SecureCluster), app.Secure.Threads())
	ins = gangCores(split.Cores(noc.InsecureCluster), app.Insecure.Threads())
	return sec, ins
}

// profile measures a candidate binding with a short run of a fresh
// application instance on a fresh machine placed directly at the
// candidate.
func profile(m *sim.Machine, model enclave.Spatial, app *workload.App, secureCores int, interrupt func() error) (float64, error) {
	warm, rounds := profileLen(app)
	if err := model.Place(m, secureCores); err != nil {
		return 0, err
	}
	ring, err := initApp(m, app)
	if err != nil {
		return 0, err
	}
	sec, ins := clusterCores(m, app)
	p := newPipeline(m, ring, app, sec, ins, warm, rounds)
	if err := p.run(interrupt); err != nil {
		return 0, err
	}
	return float64(p.completion()), nil
}

// SearchResult is the outcome of a cluster-binding search: the chosen
// secure-cluster size, the profiling probes it cost, and whether the run
// that installs the binding should waive the one-time reconfiguration
// overhead (the Optimal oracle's convention).
type SearchResult struct {
	SecureCores   int
	Probes        int
	WaiveReconfig bool
}

// SearchTrace runs only the cluster-binding search for a spatial model
// over a captured trace — the entry point for callers that place a
// binding without measuring a run at it (the scenario engine and the
// joint scheduler). RunTrace with Options.FixedSecureCores at the chosen
// binding reproduces the searched run. Temporal models time-share the
// whole machine and have no binding to choose, so they are rejected.
func SearchTrace(cfg arch.Config, model enclave.Model, tr *trace.Trace, opts Options) (SearchResult, error) {
	spatial, ok := model.(enclave.Spatial)
	if !ok {
		return SearchResult{}, fmt.Errorf("driver: temporal model %s has no cluster binding to search", model.Name())
	}
	if err := checkScale(tr, opts.scale(), "search"); err != nil {
		return SearchResult{}, err
	}
	return chooseBinding(cfg, spatial, tr.NewApp, opts)
}

// chooseBinding picks the secure-cluster size for a spatial run: the
// fixed binding when Options pins one (rejected unless it leaves both
// clusters a core), otherwise the gradient heuristic or the exhaustive
// Optimal oracle probing candidates via profile, each probe on a machine
// of its own.
func chooseBinding(cfg arch.Config, model enclave.Spatial, fresh func() *workload.App, opts Options) (SearchResult, error) {
	lo, hi := 1, cfg.Cores()-1
	sr := SearchResult{SecureCores: opts.FixedSecureCores, WaiveReconfig: opts.WaiveReconfig}
	if sr.SecureCores > hi {
		return SearchResult{}, fmt.Errorf("driver: binding of %d secure cores is outside [%d, %d]", sr.SecureCores, lo, hi)
	}
	if sr.SecureCores > 0 {
		return sr, nil
	}
	eval := func(k int) (float64, error) {
		// Checkpoint before every probe: an abandoned search stops instead
		// of walking the rest of the candidate ladder.
		if err := poll(opts.Interrupt); err != nil {
			return 0, err
		}
		m, err := AcquireMachine(cfg)
		if err != nil {
			return 0, err
		}
		defer ReleaseMachine(m)
		return profile(m, model, fresh(), k, opts.Interrupt)
	}
	var hres heuristic.Result
	var err error
	if opts.Optimal {
		stride := opts.OptimalStride
		if stride <= 0 {
			stride = 1
		}
		hres, err = heuristic.OptimalParallel(lo, hi, stride, opts.SearchWorkers, eval)
		sr.WaiveReconfig = true
	} else {
		hres, err = heuristic.Gradient(lo, hi, cfg.Cores()/2, cfg.Cores()/4, eval)
	}
	if err != nil {
		return SearchResult{}, err
	}
	sr.SecureCores = hres.SecureCores
	sr.Probes = hres.Probes
	return sr, nil
}

// runSpatial drives the insecure baseline and IRONHIDE at the binding sr
// chose. The paper's flow: place the boundary at an even split, then one
// move installs the binding — under IRONHIDE a dynamic hardware isolation
// event the secure kernel authorizes.
func runSpatial(m *sim.Machine, model enclave.Spatial, app *workload.App, opts Options, sr SearchResult) (*Result, error) {
	res := &Result{App: app.String(), Class: app.Class, Model: model.Name(), Rounds: app.Rounds, SearchProbes: sr.Probes}
	var k *kernel.Kernel
	if model.StrongIsolation() {
		var err error
		if k, err = attest(app, opts.Seed); err != nil {
			return nil, err
		}
	}
	start := m.Cfg.Cores() / 2
	if err := model.Place(m, start); err != nil {
		return nil, err
	}
	ring, err := initApp(m, app)
	if err != nil {
		return nil, err
	}
	var reconfigCycles int64
	if sr.SecureCores != start {
		if k != nil {
			if err := k.AuthorizeReconfig(); err != nil {
				return nil, err
			}
		}
		rr, err := model.Reconfigure(m, sr.SecureCores)
		if err != nil {
			return nil, err
		}
		if !sr.WaiveReconfig {
			reconfigCycles = rr.Cycles
		}
	}

	sec, ins := clusterCores(m, app)
	p := newPipeline(m, ring, app, sec, ins, app.Warmup, app.Rounds)
	if err := p.run(opts.Interrupt); err != nil {
		return nil, err
	}

	// One-time overheads amortize over the application's real input count;
	// the simulated run covers app.Rounds of RealRounds inputs.
	if reconfigCycles > 0 && app.Rounds > 0 {
		scaleBack := float64(app.Rounds) / float64(realRounds(app))
		reconfigCycles = int64(float64(reconfigCycles) * scaleBack)
		if reconfigCycles < 1 {
			reconfigCycles = 1
		}
	}
	res.CompletionCycles = p.completion() + reconfigCycles
	res.ReconfigCycles = reconfigCycles
	res.Interactions = p.interactions
	res.SecureCores = sr.SecureCores
	collectStats(m, res)
	return res, nil
}

// realRounds returns the application's real-world input count, used to
// amortize one-time overheads that a scaled-down simulation would
// otherwise exaggerate: user-level apps average 13.3K inputs in the
// paper's runs; MEMCACHED computes 2M requests and LIGHTTPD 1M fetches,
// scaled here by the batch each simulated round represents.
func realRounds(app *workload.App) int {
	if app.Class == workload.OSLevel {
		return 40_000 // requests / batch-per-round at the paper's scale
	}
	return 13_300
}

// models are the four models in the paper's presentation order. No model
// holds per-run state, so every run — on any number of goroutines —
// shares these values.
var models = [...]enclave.Model{enclave.Insecure{}, enclave.SGXLike{}, enclave.MulticoreMI6{}, core.New(32)}

// Models returns the four models in the paper's presentation order.
func Models() []enclave.Model { return append([]enclave.Model(nil), models[:]...) }

// ModelFactories returns one constructor per model of Models, each
// returning the shared value. Only the benchmark harness still calls it.
func ModelFactories() (out []func() enclave.Model) {
	for _, m := range models {
		out = append(out, func() enclave.Model { return m })
	}
	return out
}

// String renders a one-line summary of the result.
func (r *Result) String() string {
	return fmt.Sprintf("%s under %s: %d cycles (%d rounds, %d secure cores)",
		r.App, r.Model, r.CompletionCycles, r.Rounds, r.SecureCores)
}
