package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"ironhide/internal/apps"
	"ironhide/internal/arch"
	"ironhide/internal/cache"
	"ironhide/internal/core"
	"ironhide/internal/driver"
	"ironhide/internal/enclave"
	"ironhide/internal/noc"
	"ironhide/internal/runner"
	"ironhide/internal/scenario"
	"ironhide/internal/service"
	"ironhide/internal/sim"
	"ironhide/internal/store"
	"ironhide/internal/trace"
)

// scale is every workload's input scale: small enough that one paper
// matrix takes seconds, large enough that replay dominates bookkeeping.
const scale = 0.1

// machine is the simulated machine every workload runs on: the default
// of ironhide-sim and ironhide-serve (-dilation 12).
func machine() arch.Config { return arch.TileGx72Scaled(12) }

// minProbe is how many samples each layer probe takes per traced run.
const minProbe = 5

// probeOp is the span op id of layer probes, which belong to no
// operation of the workload's stream.
const probeOp = -1

// ledgerInputs are the inputs a workload's layer probes run on: its
// applications at its scale, so every layer metric describes the work
// that workload feeds the layer.
type ledgerInputs struct {
	apps []string
}

func findApps(aliases []string) ([]apps.Entry, error) {
	out := make([]apps.Entry, len(aliases))
	for i, a := range aliases {
		e, err := apps.Find(a)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// encodeBody renders v exactly as ironhide-serve writes a response body.
func encodeBody(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func capture(t *tracer, parent, op int, cfg arch.Config, e apps.Entry) (*trace.Trace, error) {
	var tr *trace.Trace
	err := t.do("driver.capture", parent, op, func() (int64, error) {
		var err error
		tr, err = driver.CaptureTrace(cfg, e.Factory, driver.Options{Scale: scale})
		return 0, err
	})
	return tr, err
}

func search(t *tracer, parent, op int, cfg arch.Config, model enclave.Model, tr *trace.Trace, opts driver.Options) (driver.SearchResult, error) {
	var sr driver.SearchResult
	err := t.do("driver.search", parent, op, func() (int64, error) {
		var err error
		sr, err = driver.SearchTrace(cfg, model, tr, opts)
		return int64(sr.Probes), err
	})
	return sr, err
}

func replay(t *tracer, parent, op int, cfg arch.Config, model enclave.Model, tr *trace.Trace, opts driver.Options) (*driver.Result, error) {
	name := "driver.replay_spatial"
	if model.Temporal() {
		name = "driver.replay_temporal"
	}
	var res *driver.Result
	err := t.do(name, parent, op, func() (int64, error) {
		var err error
		if res, err = driver.RunTrace(cfg, model, tr, opts); err != nil {
			return 0, err
		}
		return res.L1Accesses, nil
	})
	return res, err
}

func encode(t *tracer, parent, op int, v any) ([]byte, error) {
	var b []byte
	err := t.do("service.encode", parent, op, func() (int64, error) {
		var err error
		b, err = encodeBody(v)
		return int64(len(b)), err
	})
	return b, err
}

// runBody is /v1/run's answer as direct calls: the binding search (a
// spatial model with no pinned binding), the replay at the binding, and
// the encoding. The pinned replay plus the search's probe count is the
// Result the server's searching replay returns.
func runBody(t *tracer, parent, op int, cfg arch.Config, mf func() enclave.Model, tr *trace.Trace, opts driver.Options) ([]byte, error) {
	model := mf()
	if model.Temporal() || opts.FixedSecureCores > 0 {
		res, err := replay(t, parent, op, cfg, model, tr, opts)
		if err != nil {
			return nil, err
		}
		return encode(t, parent, op, res)
	}
	sr, err := search(t, parent, op, cfg, model, tr, opts)
	if err != nil {
		return nil, err
	}
	pinned := opts
	pinned.FixedSecureCores, pinned.WaiveReconfig = sr.SecureCores, sr.WaiveReconfig
	res, err := replay(t, parent, op, cfg, mf(), tr, pinned)
	if err != nil {
		return nil, err
	}
	res.SearchProbes = sr.Probes
	return encode(t, parent, op, res)
}

// searchBody is /v1/search's answer as direct calls.
func searchBody(t *tracer, parent, op int, cfg arch.Config, mf func() enclave.Model, tr *trace.Trace, opts driver.Options) ([]byte, error) {
	sr, err := search(t, parent, op, cfg, mf(), tr, opts)
	if err != nil {
		return nil, err
	}
	pinned := opts
	pinned.FixedSecureCores, pinned.WaiveReconfig = sr.SecureCores, sr.WaiveReconfig
	res, err := replay(t, parent, op, cfg, mf(), tr, pinned)
	if err != nil {
		return nil, err
	}
	return encode(t, parent, op, service.SearchResponse{
		App:              res.App,
		Model:            res.Model,
		SecureCores:      sr.SecureCores,
		Probes:           sr.Probes,
		CompletionCycles: res.CompletionCycles,
		ComputeCycles:    res.ComputeCycles(),
		EntryExitCycles:  res.EntryExitCycles,
		PurgeCycles:      res.PurgeCycles,
		ReconfigCycles:   res.ReconfigCycles,
	})
}

// modelFactory returns the constructor of the named model.
func modelFactory(name string) func() enclave.Model {
	for _, mf := range driver.ModelFactories() {
		if mf().Name() == name {
			return mf
		}
	}
	panic("benchmark: unknown model " + name)
}

// runLedger probes every layer on the workload's inputs, so each layer
// metric is measured on every workload: layers on the workload's own path
// also get the re-issued stream's spans, the rest only these probes.
func runLedger(t *tracer, in ledgerInputs, seed int64, r *result) {
	cfg := machine()
	entries, err := findApps(in.apps)
	if err != nil {
		r.fail(err)
		return
	}
	probe := func(name string, err error) {
		if err != nil {
			r.fail(fmt.Errorf("probe %s: %w", name, err))
		}
	}
	traces := map[string]*trace.Trace{}
	for _, e := range entries {
		tr, err := capture(t, 0, probeOp, cfg, e)
		if err != nil {
			probe("capture", err)
			return
		}
		traces[e.Alias] = tr
	}
	dir, err := os.MkdirTemp("", "ironhide-bench-ledger-")
	if err != nil {
		probe("store", err)
		return
	}
	defer os.RemoveAll(dir)
	st, _, err := store.Open(dir, store.OSFS{})
	if err != nil {
		probe("store", err)
		return
	}
	// A layer the re-issued stream already reached minProbe times needs no
	// probe; composite probes (a matrix, a timeline) need one run.
	short := func(names ...string) bool {
		for _, n := range names {
			if t.spanCount(n) < minProbe {
				return true
			}
		}
		return false
	}
	for i := 0; i < minProbe; i++ {
		e := entries[i%len(entries)]
		tr := traces[e.Alias]
		probe("codec", probeCodec(t, tr, st, fmt.Sprintf("%s#%d", e.Alias, i)))
		opts := driver.Options{Scale: scale, Seed: runner.SeedFor(seed, i)}
		if short("driver.search") {
			_, err := search(t, 0, probeOp, cfg, core.New(cfg.Cores()/2), tr, opts)
			probe("search", err)
		}
		if short("driver.replay_spatial", "service.encode") {
			pinned := opts
			pinned.FixedSecureCores = cfg.Cores() / 2
			_, err := runBody(t, 0, probeOp, cfg, modelFactory("IRONHIDE"), tr, pinned)
			probe("run IRONHIDE", err)
		}
		if short("driver.replay_temporal") {
			m := []string{"MI6", "SGX"}[i%2]
			_, err := runBody(t, 0, probeOp, cfg, modelFactory(m), tr, opts)
			probe("run "+m, err)
		}
	}
	probe("access", probeAccess(t))
	probe("purge", probePurge(t, cfg))
	probe("reconfigure", probeReconfigure(t, cfg))
	if t.spanCount("runner.matrix") == 0 {
		_, err := tracedMatrix(t, 0, probeOp, cfg, entries, loadWorkers(), seed)
		probe("matrix", err)
	}
	specs := probeSpecs(in.apps, seed)
	for _, sp := range specs {
		if t.spanCount(segmentSpan(scenario.EvPhaseComplete, sp.CoTenancy)) == 0 {
			_, err := tracedScenario(t, 0, probeOp, cfg, sp, traces)
			probe("scenario", err)
		}
	}
	probe("fleet", probeFleet(t, cfg, entries, traces, specs, seed))
}

// probeCodec times the trace codec, the plan lowering, and a store round
// trip of one capture.
func probeCodec(t *tracer, tr *trace.Trace, st *store.Store, key string) error {
	var b []byte
	_ = t.do("trace.marshal", 0, probeOp, func() (int64, error) {
		b = trace.Marshal(tr)
		return int64(len(b)), nil
	})
	var back *trace.Trace
	if err := t.do("trace.unmarshal", 0, probeOp, func() (int64, error) {
		var err error
		back, err = trace.Unmarshal(b)
		return int64(len(b)), err
	}); err != nil {
		return err
	}
	if back.Bytes() != tr.Bytes() {
		return fmt.Errorf("unmarshal round trip: %d stream bytes, want %d", back.Bytes(), tr.Bytes())
	}
	_ = t.do("trace.lower", 0, probeOp, func() (int64, error) {
		cp := tr.Clone()
		return int64(cp.Ins.Lower(cp.Ins.Threads) + cp.Sec.Lower(cp.Sec.Threads)), nil
	})
	if err := t.do("store.put", 0, probeOp, func() (int64, error) {
		return int64(len(b)), st.Put(key, b)
	}); err != nil {
		return err
	}
	var got []byte
	if err := t.do("store.get", 0, probeOp, func() (int64, error) {
		var ok bool
		var err error
		got, ok, err = st.Get(key)
		if err == nil && !ok {
			err = fmt.Errorf("store lost key %q", key)
		}
		return int64(len(got)), err
	}); err != nil {
		return err
	}
	if !bytes.Equal(got, b) {
		return fmt.Errorf("store returned %d bytes for %q, want the %d put", len(got), key, len(b))
	}
	return st.Delete(key)
}

// probeAccess times Machine.Access on the full 64-core machine with
// routing isolation on: an L1 hit, and a walk over twice one L2 slice
// homed on that slice so every access misses L2. Each sample runs at
// least 10 ms, far above timer resolution.
func probeAccess(t *tracer) error {
	cfg := machine()
	build := func() (*sim.Machine, sim.Buffer, error) {
		m, err := sim.NewMachine(cfg)
		if err != nil {
			return nil, sim.Buffer{}, err
		}
		if err := m.Part.AssignDomains(0b0011); err != nil {
			return nil, sim.Buffer{}, err
		}
		split, err := noc.NewSplit(32, cfg)
		if err != nil {
			return nil, sim.Buffer{}, err
		}
		m.SetSplit(split, true)
		m.SetHomePolicy(arch.Secure, cache.NewLocalHome())
		m.SetSlices(arch.Secure, []cache.SliceID{0})
		return m, m.NewSpace("bench", arch.Secure).Alloc("a", 2*cfg.L2SliceSize), nil
	}
	for _, name := range []string{"sim.access_l1hit", "sim.access_l2miss"} {
		m, buf, err := build()
		if err != nil {
			return err
		}
		miss := name == "sim.access_l2miss"
		line := cfg.LineSize
		if miss {
			for off := 0; off < buf.Size; off += line {
				m.Access(0, buf.Addr(off), true, arch.Secure, 0)
			}
		}
		off, now := 0, int64(0)
		walk := func(n int) {
			for i := 0; i < n; i++ {
				if miss {
					m.Access(0, buf.Addr(off), true, arch.Secure, now)
					off = (off + line) % buf.Size
				} else {
					m.Access(0, buf.Addr(0), false, arch.Secure, now)
				}
				now++
			}
		}
		n := 1 << 10
		for {
			t0 := time.Now()
			walk(n)
			if time.Since(t0) >= 10*time.Millisecond {
				break
			}
			n *= 2
		}
		for i := 0; i < minProbe; i++ {
			_ = t.do(name, 0, probeOp, func() (int64, error) {
				walk(n)
				return int64(n), nil
			})
		}
	}
	return nil
}

// probePurge times MI6's strong-isolation purge on the full machine.
func probePurge(t *tracer, cfg arch.Config) error {
	m, err := sim.NewMachine(cfg)
	if err != nil {
		return err
	}
	mi6 := enclave.MulticoreMI6{}
	if err := mi6.Configure(m); err != nil {
		return err
	}
	for i := 0; i < minProbe; i++ {
		_ = t.do("enclave.purge", 0, probeOp, func() (int64, error) {
			return mi6.EnterSecure(m), nil
		})
	}
	return nil
}

// probeReconfigure times one IRONHIDE dynamic-isolation event moving 24
// cores with 8 MiB resident in each domain.
func probeReconfigure(t *tracer, cfg arch.Config) error {
	for i := 0; i < minProbe; i++ {
		m, err := sim.NewMachine(cfg)
		if err != nil {
			return err
		}
		ih := core.New(32)
		if err := ih.Configure(m); err != nil {
			return err
		}
		m.NewSpace("enclave", arch.Secure).Alloc("data", 8<<20)
		m.NewSpace("ordinary", arch.Insecure).Alloc("data", 8<<20)
		if err := t.do("core.reconfigure", 0, probeOp, func() (int64, error) {
			rr, err := ih.Reconfigure(m, 8)
			return int64(rr.PagesMoved), err
		}); err != nil {
			return err
		}
	}
	return nil
}

// probeEvents is the length of a probe timeline: enough for arrivals, a
// resize and a departure.
const probeEvents = 4

// probeSpecs are the scenario probes: one time-shared and one co-tenant
// timeline over the workload's applications (the engine admits at most
// three at once).
func probeSpecs(aliases []string, seed int64) []scenario.Spec {
	return []scenario.Spec{
		{Seed: runner.SeedFor(seed, 1), Apps: aliases, Events: probeEvents, Scale: scale, ReconfigPolicy: "always"},
		{Seed: runner.SeedFor(seed, 2), Apps: aliases, Events: probeEvents, Scale: scale, ReconfigPolicy: "always", CoTenancy: true},
	}
}

// overheadPairs is how many paired samples each overhead probe takes. An
// overhead is a fraction of a millisecond on top of work that varies by
// more than that from call to call, so it is read as the median of
// differences between back-to-back calls doing identical work.
const overheadPairs = 25

// probeFleet stands up a 2-shard fleet and times what HTTP, routing,
// peer fetch and stream framing add to direct calls: a warm /v1/run
// posted to the key's owner against the same answer computed in-process,
// the same query through the router, a peer fetch of a stored trace, and
// streamed scenario phases against the same timeline run in-process.
func probeFleet(t *tracer, cfg arch.Config, entries []apps.Entry, traces map[string]*trace.Trace, specs []scenario.Spec, seed int64) error {
	f, err := newFleetPair(cfg)
	if err != nil {
		return err
	}
	defer f.close()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()

	// The workload's cheapest query, a single SGX replay of its first
	// application, keeps the overhead a measurable share of each call.
	e := entries[0]
	q := service.Query{App: e.Alias, Model: "SGX", Scale: scale, Seed: runner.SeedFor(seed, 100)}
	key, err := service.RouteKey(q)
	if err != nil {
		return err
	}
	owner, _ := f.shards(key)
	var raw json.RawMessage
	if _, err := f.rt.Query(ctx, "/v1/run", q, &raw); err != nil { // captures on the owner
		return err
	}
	want, err := runBody(nil, 0, 0, cfg, modelFactory(q.Model), traces[e.Alias], q.Options())
	if err != nil {
		return err
	}
	want = bytes.TrimSuffix(want, []byte("\n"))
	client := service.Client{BaseURL: f.members[owner], HTTP: f.client}
	calls := []struct {
		span string
		call func() error
	}{
		{"service.direct", func() error {
			b, err := runBody(nil, 0, 0, cfg, modelFactory(q.Model), traces[e.Alias], q.Options())
			raw = bytes.TrimSuffix(b, []byte("\n"))
			return err
		}},
		{"service.http", func() error { _, err := client.PostJSON(ctx, "/v1/run", q, &raw); return err }},
		{"fleet.routed", func() error { _, err := f.rt.Query(ctx, "/v1/run", q, &raw); return err }},
	}
	for i := 0; i < overheadPairs; i++ {
		var d [3]float64
		for j, c := range calls {
			raw = nil
			t0 := time.Now()
			if err := t.do(c.span, 0, probeOp, func() (int64, error) { return 0, c.call() }); err != nil {
				return err
			}
			d[j] = float64(time.Since(t0).Nanoseconds())
			if !bytes.Equal(raw, want) {
				return fmt.Errorf("%s body for %s differs from the direct answer", c.span, e.Alias)
			}
		}
		t.count("service.overhead_ns", d[1]-d[0])
		t.count("fleet.route_overhead_ns", d[2]-d[1])
	}

	// Peer fetches of traces the peer holds only on disk, the way a
	// serve-cold peer rung finds them.
	for i := 0; i < minProbe; i++ {
		e := entries[i%len(entries)]
		tr := traces[e.Alias]
		key, err := service.RouteKey(service.Query{App: e.Alias, Scale: scale, Seed: runner.SeedFor(seed, 200+i)})
		if err != nil {
			return err
		}
		_, peer := f.shards(key)
		if err := f.stores[peer].Put(key, trace.Marshal(tr)); err != nil {
			return err
		}
		got, err := peerFetch(t, 0, probeOp, f.client, f.members[peer], key)
		if err != nil {
			return err
		}
		if got.Bytes() != tr.Bytes() {
			return fmt.Errorf("peer fetch of %s: %d stream bytes, want %d", key, got.Bytes(), tr.Bytes())
		}
		if err := f.stores[peer].Delete(key); err != nil {
			return err
		}
	}

	// The probe timelines streamed and run in-process, phase by phase,
	// both over the same cached traces.
	for _, a := range entries {
		f.srvs[0].Cache().Seed(service.TraceKey{App: a.Name, Scale: scale}, traces[a.Alias])
	}
	client = service.Client{BaseURL: f.members[0], HTTP: f.client}
	for _, sp := range specs {
		gaps, out, err := streamTimeline(&client, sp)
		if err != nil {
			return err
		}
		if out.Cache != "hit" {
			return fmt.Errorf("probe timeline resolved its traces by %s, want cache hits", out.Cache)
		}
		phases, err := directPhases(cfg, sp, traces)
		if err != nil {
			return err
		}
		for k := range min(len(gaps), len(phases)) {
			t.count("scenario.stream_overhead_ns", float64((gaps[k] - phases[k]).Nanoseconds()))
		}
	}
	return nil
}

// layerMetrics reads the per-layer metrics off the traced run's spans.
func layerMetrics(t *tracer, w *workload, e2e []float64, cs counters, r *result) {
	st := t.stats()
	ms := func(metric, span string) {
		r.set(metric, median(st.self[span])/1e6, len(st.self[span]))
	}
	ms("driver.capture_ms", "driver.capture")
	ms("driver.search_ms", "driver.search")
	r.set("driver.search_probes", median(st.n["driver.search"]), len(st.n["driver.search"]))
	ms("driver.replay_spatial_ms", "driver.replay_spatial")
	ms("driver.replay_temporal_ms", "driver.replay_temporal")
	r.set("sim.host_ns_per_access", median(st.perN["driver.replay_spatial"]), len(st.perN["driver.replay_spatial"]))
	r.set("sim.access_l1hit_ns", median(st.perN["sim.access_l1hit"]), len(st.perN["sim.access_l1hit"]))
	r.set("sim.access_l2miss_ns", median(st.perN["sim.access_l2miss"]), len(st.perN["sim.access_l2miss"]))
	ms("enclave.purge_ms", "enclave.purge")
	ms("core.reconfigure_ms", "core.reconfigure")
	ms("trace.lower_ms", "trace.lower")
	ms("trace.marshal_ms", "trace.marshal")
	ms("trace.unmarshal_ms", "trace.unmarshal")
	r.set("trace.bytes", median(st.n["trace.marshal"]), len(st.n["trace.marshal"]))
	ms("store.put_ms", "store.put")
	ms("store.get_ms", "store.get")

	var work, speedup []float64
	for _, id := range st.names["runner.matrix"] {
		s := st.byID[id]
		w := st.childWork(id)
		work = append(work, w)
		speedup = append(speedup, w/float64(s.End-s.Start))
	}
	r.set("runner.seq_matrix_ms", median(work)/1e6, len(work))
	r.set("runner.speedup", median(speedup), len(speedup))

	ms("service.encode_ms", "service.encode")
	nsCount := func(metric, count string) {
		r.set(metric, median(t.counts[count])/1e6, len(t.counts[count]))
	}
	nsCount("service.overhead_ms", "service.overhead_ns")
	r.set("service.cache_hit_frac", cs.cacheHitFrac, 1)
	r.set("service.live_captures", cs.liveCaptures, 1)
	ms("fleet.peer_fetch_ms", "fleet.peer_fetch")
	nsCount("fleet.route_overhead_ms", "fleet.route_overhead_ns")

	ms("scenario.trace_ms", "scenario.trace")
	ms("scenario.arrive_search_ms", "scenario.arrive_search")
	ms("scenario.resize_ms", "scenario.resize")
	ms("scenario.replay_ms", "scenario.replay")
	ms("scenario.corun_ms", "scenario.corun")
	nsCount("scenario.stream_overhead_ms", "scenario.stream_overhead_ns")
	for _, c := range []string{"scenario.purge_cycles", "scenario.reconfigs", "scenario.denied", "scenario.deferred"} {
		r.set(c, median(t.counts[c]), len(t.counts[c]))
	}

	// residual_ms: the untraced latency median minus the time the traced
	// re-issue of the same stream spent inside layer spans.
	var parts []float64
	for _, id := range st.names[w.unitSpan] {
		s := st.byID[id]
		if s.Op < 0 {
			continue
		}
		var children []interval
		for _, k := range st.kids[id] {
			c := st.byID[k]
			children = append(children, interval{c.Start, c.End})
		}
		parts = append(parts, float64(s.End-s.Start-selfTime(interval{s.Start, s.End}, children)))
	}
	r.set("residual_ms", median(e2e)-median(parts)/1e6, len(parts))
}
