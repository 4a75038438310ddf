package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"ironhide/internal/apps"
	"ironhide/internal/arch"
	"ironhide/internal/driver"
	"ironhide/internal/runner"
	"ironhide/internal/scenario"
	"ironhide/internal/service"
	"ironhide/internal/trace"
)

// scenarioEvents is every timeline's length.
const scenarioEvents = 8

// scenarioCatalog is how many distinct timelines the workload cycles
// through. The phase-latency median sits on a steep stretch of a
// multimodal distribution (replay-only phases take a few milliseconds,
// arrivals with their binding search tens), so a window must see the
// same phase mix on every seed: each aligned block of operations runs
// every catalog timeline once, and only the order and the run seeds vary.
const scenarioCatalog = 12

// scenarioSamples is how many streamed bodies per window are re-derived
// with a blocking scenario.Run and compared byte for byte.
const scenarioSamples = 8

// scenarioStream streams 8-event timelines over the default application
// pool from one in-process server. The catalog's timelines are generated
// from seeds 1..scenarioCatalog; half run co-tenant (space-shared) under
// the "always" resize policy, the other half time-shared under each of
// the three policies in turn. Co-tenant
// timelines use "always" only: under hysteresis or costaware a deferred
// resize can leave a cluster with one core, which the joint scheduler
// cannot split between two tenants (see README).
type scenarioStream struct {
	cfg    arch.Config
	seed   int64
	ht     *httptest.Server
	client service.Client
	traces map[string]*trace.Trace
	// timelines is the catalog, in catalog order.
	timelines [][]scenario.Event

	mu     sync.Mutex
	bodies map[int][32]byte // sha256 of each operation's terminal body
	base   service.StatusResponse
}

func setupScenarioStream(seed int64) (instance, error) {
	s := &scenarioStream{cfg: machine(), seed: seed, traces: map[string]*trace.Trace{}, bodies: map[int][32]byte{}}
	s.ht = httptest.NewServer(service.New(service.Config{Arch: s.cfg}))
	s.client = service.Client{BaseURL: s.ht.URL, HTTP: loadClient()}
	for k := range scenarioCatalog {
		s.timelines = append(s.timelines, scenario.Generate(scenario.Spec{Seed: int64(k + 1), Events: scenarioEvents}))
	}
	entries, err := findApps(scenario.Spec{}.Pool())
	if err != nil {
		s.close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	for _, e := range entries {
		tr, err := driver.CaptureTrace(s.cfg, e.Factory, driver.Options{Scale: scale})
		if err != nil {
			s.close()
			return nil, err
		}
		s.traces[e.Alias] = tr
		// Scenario traces are cached under seed 0, the key of a seedless
		// query: one such run per application warms the server's cache,
		// so every measured timeline resolves its traces as cache hits.
		q := service.Query{App: e.Alias, Model: "SGX", Scale: scale}
		if _, err := s.client.PostJSON(ctx, "/v1/run", q, nil); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// spec is operation i's timeline request and its catalog index. Its seed
// steers attestation keys and tenant run seeds; the events come from the
// catalog.
func (s *scenarioStream) spec(i int) (scenario.Spec, int) {
	k := blockIndex(s.seed, i, scenarioCatalog)
	sp := scenario.Spec{
		Seed: runner.SeedFor(s.seed, i), Events: scenarioEvents, Scale: scale,
		ReconfigPolicy: "always", Timeline: s.timelines[k],
	}
	if k%2 == 0 {
		sp.CoTenancy = true
	} else {
		sp.ReconfigPolicy = scenario.ReconfigPolicyNames()[(k/2)%3]
	}
	return sp, k
}

// streamTimeline streams one timeline and returns the client-side gaps
// between its phase-complete events (the first measured from the
// request) after checking that the phases streamed are the report's.
func streamTimeline(c *service.Client, sp scenario.Spec) ([]time.Duration, *service.StreamOutcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var gaps []time.Duration
	var phases []scenario.Phase
	last := time.Now()
	out, err := c.ScenarioStream(ctx, service.ScenarioRequest{Spec: sp}, func(ev scenario.StreamEvent) {
		if ev.Type == scenario.EvPhaseComplete && ev.Detail != nil {
			now := time.Now()
			gaps = append(gaps, now.Sub(last))
			last = now
			phases = append(phases, *ev.Detail)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	if err := checkTimeline(out.Report, sp); err != nil {
		return nil, nil, err
	}
	streamed, err1 := json.Marshal(phases)
	reported, err2 := json.Marshal(out.Report.Phases)
	if err1 != nil || err2 != nil || string(streamed) != string(reported) {
		return nil, nil, fmt.Errorf("seed %d: streamed phase events differ from the report's phases", sp.Seed)
	}
	return gaps, out, nil
}

func checkTimeline(rep *scenario.Report, sp scenario.Spec) error {
	switch {
	case len(rep.Phases) != sp.Events:
		return fmt.Errorf("seed %d: %d phases, want %d", sp.Seed, len(rep.Phases), sp.Events)
	case rep.RouteViolations != 0:
		return fmt.Errorf("seed %d: %d route violations", sp.Seed, rep.RouteViolations)
	}
	return nil
}

func (s *scenarioStream) op(i int) ([]sample, error) {
	sp, k := s.spec(i)
	gaps, out, err := streamTimeline(&s.client, sp)
	if err != nil {
		return nil, err
	}
	if out.Cache != "hit" {
		return nil, fmt.Errorf("seed %d: trace source %q, want a cache hit", sp.Seed, out.Cache)
	}
	s.mu.Lock()
	s.bodies[i] = sha256.Sum256(out.Body)
	s.mu.Unlock()
	samples := make([]sample, len(gaps))
	for p, g := range gaps {
		samples[p] = sample{k*scenarioEvents + p, g}
	}
	return samples, nil
}

// finish re-derives a seeded sample of the window's timelines with the
// blocking engine and compares each body byte for byte.
func (s *scenarioStream) finish(from, to int) (counters, []error) {
	cs, err := cacheCounters([]string{s.ht.URL}, []service.StatusResponse{s.base})
	if err != nil {
		return cs, []error{err}
	}
	idx := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		idx = append(idx, i)
	}
	rng := rand.New(rand.NewPCG(uint64(s.seed), uint64(to)))
	rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	idx = idx[:min(scenarioSamples, len(idx))]
	sort.Ints(idx)
	var errs []error
	for _, i := range idx {
		sp, _ := s.spec(i)
		rep, err := scenario.Run(s.cfg, sp, scenario.Options{Workers: runtime.NumCPU(), TraceFor: lookup(s.traces)})
		if err == nil {
			var body []byte
			if body, err = encodeBody(rep); err == nil && sha256.Sum256(body) != s.bodies[i] {
				err = fmt.Errorf("seed %d: streamed body differs from the blocking run's", sp.Seed)
			}
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("op %d: %w", i, err))
		}
	}
	cs.notes = append(cs.notes, fmt.Sprintf("%d of %d streamed bodies re-derived by blocking runs", len(idx)-len(errs), len(idx)))
	return cs, errs
}

// lookup is the engine's TraceFor hook over already captured traces.
func lookup(traces map[string]*trace.Trace) func(apps.Entry, float64) (*trace.Trace, error) {
	return func(e apps.Entry, _ float64) (*trace.Trace, error) {
		tr, ok := traces[e.Alias]
		if !ok {
			return nil, fmt.Errorf("no trace for %s", e.Alias)
		}
		return tr, nil
	}
}

func (s *scenarioStream) traced(t *tracer, parent, i int) error {
	sp, _ := s.spec(i)
	_, err := tracedScenario(t, parent, i, s.cfg, sp, s.traces)
	return err
}

// segmentSpan names the stretch of a phase that ends with an engine
// event: what the engine did between the previous event and this one.
func segmentSpan(event string, cotenancy bool) string {
	switch event {
	case scenario.EvTenantArrive:
		return "scenario.arrive_search" // trace, attestation, context-switch purge, binding search
	case scenario.EvTenantDepart:
		return "scenario.depart"
	case scenario.EvLoadShift:
		return "scenario.load_shift"
	case scenario.EvResizeAuthorized:
		return "scenario.resize" // policy, kernel budget, reconfigure with purges
	case scenario.EvResizeDenied:
		return "scenario.resize_denied"
	case scenario.EvPurgeCost:
		return "scenario.purge_cost"
	case scenario.EvPhaseComplete:
		if cotenancy {
			return "scenario.corun" // partition + simultaneous co-run + baselines
		}
		return "scenario.replay" // per-tenant replays at the binding
	}
	return "scenario." + event
}

// tracedScenario runs one timeline in-process through the engine's hooks
// and cuts its wall time into spans at the engine's own events: a phase
// per phase-complete, and inside it one span per stretch between events,
// with each trace lookup nested in the stretch that made it.
func tracedScenario(t *tracer, parent, op int, cfg arch.Config, sp scenario.Spec, traces map[string]*trace.Trace) (*scenario.Report, error) {
	type mark struct {
		at  time.Time
		typ string
	}
	var (
		mu      sync.Mutex
		marks   []mark
		lookups []interval
	)
	find := lookup(traces)
	start := time.Now()
	rep, err := scenario.Run(cfg, sp, scenario.Options{
		Workers: runtime.NumCPU(),
		TraceFor: func(e apps.Entry, s float64) (*trace.Trace, error) {
			t0 := time.Now()
			tr, err := find(e, s)
			mu.Lock()
			lookups = append(lookups, interval{t0.UnixNano(), time.Now().UnixNano()})
			mu.Unlock()
			return tr, err
		},
		Sink: func(ev scenario.StreamEvent) {
			marks = append(marks, mark{time.Now(), ev.Type})
		},
	})
	end := time.Now()
	if err != nil {
		return nil, err
	}
	if err := checkTimeline(rep, sp); err != nil {
		return nil, err
	}
	tl := t.add("scenario.timeline", parent, op, start, end)
	phaseStart, segStart := start, start
	var segs []mark
	for _, m := range marks {
		segs = append(segs, m)
		if m.typ != scenario.EvPhaseComplete {
			continue
		}
		ph := t.add("scenario.phase", tl, op, phaseStart, m.at)
		for _, sg := range segs {
			seg := t.add(segmentSpan(sg.typ, sp.CoTenancy), ph, op, segStart, sg.at)
			for _, l := range lookups {
				if l.start >= segStart.UnixNano() && l.end <= sg.at.UnixNano() {
					t.add("scenario.trace", seg, op, time.Unix(0, l.start), time.Unix(0, l.end))
				}
			}
			segStart = sg.at
		}
		phaseStart, segs = m.at, nil
	}
	t.count("scenario.purge_cycles", float64(rep.TotalPurgeCycles))
	t.count("scenario.reconfigs", float64(rep.Reconfigs))
	t.count("scenario.denied", float64(rep.Denied))
	t.count("scenario.deferred", float64(rep.Deferred))
	return rep, nil
}

// directPhases times each phase of one in-process timeline, from the
// engine's phase-complete events.
func directPhases(cfg arch.Config, sp scenario.Spec, traces map[string]*trace.Trace) ([]time.Duration, error) {
	var phases []time.Duration
	last := time.Now()
	_, err := scenario.Run(cfg, sp, scenario.Options{
		Workers:  runtime.NumCPU(),
		TraceFor: lookup(traces),
		Sink: func(ev scenario.StreamEvent) {
			if ev.Type == scenario.EvPhaseComplete {
				now := time.Now()
				phases = append(phases, now.Sub(last))
				last = now
			}
		},
	})
	return phases, err
}

func (s *scenarioStream) begin() error {
	var err error
	s.base, err = status(s.ht.URL)
	return err
}

func (s *scenarioStream) ledger() ledgerInputs { return ledgerInputs{apps: scenario.Spec{}.Pool()} }

func (s *scenarioStream) close() error {
	s.ht.Close()
	if s.client.HTTP != nil {
		s.client.HTTP.CloseIdleConnections()
	}
	return nil
}
