// Package service implements ironhide-serve's HTTP API: an online,
// concurrent simulation-as-a-service front end over the driver. The
// paper's premise is *interactive* applications — per-request isolation
// decisions on a secure multicore — and this package is that loop as a
// long-running daemon: clients ask for a cluster binding or a full
// measured run, the service captures each workload trace at most once
// (bounded LRU keyed by app/scale/seed, singleflight-coalesced so a
// thundering herd of the same query costs one execution) and answers
// every subsequent query by payload-free replay.
//
// Endpoints:
//
//	POST /v1/search  app, model, scale, seed → chosen binding + predicted
//	                 completion and overhead breakdown (spatial models)
//	POST /v1/run     full driver Result JSON, byte-identical to the batch
//	                 path for the same (app, model, scale, seed)
//	POST /v1/grid     a batch of cells fanned out over the runner pool
//	POST /v1/scenario a multi-tenant dynamic-reconfiguration timeline
//	                  (internal/scenario) run over the shared trace cache
//	GET  /v1/status   uptime, in-flight counts, admission/cache/store stats
//	GET  /v1/healthz  process liveness (always 200 while serving)
//	GET  /v1/readyz   load-balancer readiness; 503 once draining
//
// Responses to identical queries are byte-identical (the simulation is
// deterministic and cache metadata travels in the X-Ironhide-Cache
// header, not the body). Per-request deadlines come from the request's
// timeout_ms or the server default; a timed-out capture keeps running in
// the background (bounded by Config.CaptureGrace) and lands in the
// cache, so a retry after a timeout is typically a cheap replay.
//
// Resilience: simulation endpoints pass an admission gate — a semaphore
// with a bounded wait queue — and excess load is shed with 503 plus a
// Retry-After hint instead of queueing without bound. With a Config.Store
// the server is crash-safe: every captured trace is written through to a
// checksummed, fsync'd store and the cache is pre-warmed from it at
// startup, so a restart serves warm replays instead of re-capturing.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ironhide/internal/apps"
	"ironhide/internal/arch"
	"ironhide/internal/driver"
	"ironhide/internal/enclave"
	"ironhide/internal/runner"
	"ironhide/internal/scenario"
	"ironhide/internal/sched"
	"ironhide/internal/store"
	"ironhide/internal/trace"
)

// MaxGridCells bounds one /v1/grid request.
const MaxGridCells = 256

// maxRequestBody bounds one request body; larger bodies get 413. A full
// 256-cell grid request fits in a few tens of kilobytes, so 1 MiB is
// generous without letting a client buffer arbitrary amounts.
const maxRequestBody = 1 << 20

// errBodyTooLarge marks a request body rejected by the size cap.
var errBodyTooLarge = errors.New("request body too large")

// Config tunes the server.
type Config struct {
	// Arch is the simulated machine configuration (required).
	Arch arch.Config
	// CacheTraces bounds the LRU trace cache (default 16).
	CacheTraces int
	// GridWorkers bounds each /v1/grid fan-out (default: all host cores).
	GridWorkers int
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default 60s; <0 disables the default deadline).
	DefaultTimeout time.Duration
	// Store persists captured traces across restarts (nil = memory only).
	// Captures write through to it; at startup the cache is pre-warmed
	// from it.
	Store *store.Store
	// AdmitCapacity bounds concurrently executing simulation requests
	// (0 = no admission control; status/health endpoints are never gated).
	AdmitCapacity int
	// AdmitQueue bounds requests waiting for an execution slot before
	// load-shedding kicks in (meaningful only with AdmitCapacity > 0).
	AdmitQueue int
	// RetryAfter is the hint attached to shed (503) responses (default 1s).
	RetryAfter time.Duration
	// CaptureGrace bounds how long a capture whose callers have all gone
	// keeps running before it is aborted at a checkpoint. 0 means the
	// default — run to completion, which keeps a post-timeout retry cheap;
	// set a positive bound to reclaim capacity under churn.
	CaptureGrace time.Duration
	// Fleet shards this instance into a cluster (nil = single node). See
	// FleetConfig: peers resolve local misses over GET /v1/trace/{key}
	// before re-capturing, and /v1/readyz + /v1/status become shard-aware.
	Fleet *FleetConfig
}

// Server answers simulation queries over HTTP. It is safe for concurrent
// use; create one with New.
type Server struct {
	cfg     Config
	cache   *TraceCache
	gate    *gate
	persist *persistence
	peers   *peerFetcher
	mux     *http.ServeMux
	start   time.Time
	ready   atomic.Bool

	served                                    atomic.Int64
	inflightSearch, inflightRun, inflightGrid atomic.Int64
	inflightScenario, inflightJoint           atomic.Int64
	// liveCaptures counts actual driver.CaptureTrace invocations —
	// payload executions. Unlike the cache's Captures stat (which counts
	// fill-closure runs, peer fetches included), this is the number that
	// stays at zero when a restarted shard re-warms from its store and
	// peers instead of re-executing.
	liveCaptures atomic.Int64
}

// New builds a Server over the configuration.
func New(cfg Config) *Server {
	if cfg.CacheTraces <= 0 {
		cfg.CacheTraces = 16
	}
	if cfg.GridWorkers <= 0 {
		cfg.GridWorkers = runtime.NumCPU()
	}
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.CaptureGrace == 0 {
		cfg.CaptureGrace = -1
	}
	s := &Server{cfg: cfg, cache: NewTraceCache(cfg.CacheTraces), mux: http.NewServeMux(), start: time.Now()}
	s.cache.SetCaptureGrace(cfg.CaptureGrace)
	s.gate = newGate(cfg.AdmitCapacity, cfg.AdmitQueue)
	if cfg.Store != nil {
		s.persist = &persistence{st: cfg.Store}
		s.persist.prewarm(s.cache)
	}
	if cfg.Fleet != nil {
		s.peers = newPeerFetcher(cfg.Fleet)
	}
	s.ready.Store(true)
	s.mux.HandleFunc("POST /v1/search", endpoint(s, &s.inflightSearch, s.searchPlan))
	s.mux.HandleFunc("POST /v1/run", endpoint(s, &s.inflightRun, s.runPlan))
	s.mux.HandleFunc("POST /v1/grid", endpoint(s, &s.inflightGrid, s.gridPlan))
	s.mux.HandleFunc("POST /v1/scenario", endpoint(s, &s.inflightScenario, s.scenarioPlan))
	s.mux.HandleFunc("POST /v1/joint", endpoint(s, &s.inflightJoint, s.jointPlan))
	s.mux.HandleFunc("GET /v1/trace/{key}", s.handleTrace)
	s.mux.HandleFunc("GET /v1/ring", s.handleRing)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.served.Add(1)
	if s.peers != nil {
		// Which shard answered travels on every response, so clients can
		// observe routing and failover without server-side coordination.
		w.Header().Set("X-Ironhide-Shard", s.peers.self)
	}
	s.mux.ServeHTTP(w, r)
}

// Cache exposes the trace cache (tests and the benchmark inspect and seed it).
func (s *Server) Cache() *TraceCache { return s.cache }

// SetReady flips the /v1/readyz answer. main calls SetReady(false) when a
// drain starts, so load balancers stop routing to this instance before
// in-flight requests finish.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports the current readiness state.
func (s *Server) Ready() bool { return s.ready.Load() }

// Query is the request body of /v1/search and /v1/run, and one cell of a
// /v1/grid batch.
type Query struct {
	// App is a catalog alias ("aes-query") or paper label ("<AES, QUERY>").
	App string `json:"app"`
	// Model is Insecure, SGX, MI6 or IRONHIDE (case-insensitive).
	Model string `json:"model"`
	// Scale multiplies round counts (0 = the app's defaults, i.e. 1.0).
	Scale float64 `json:"scale,omitempty"`
	// Seed makes the run reproducible (0 in a grid cell: the runner
	// derives a deterministic per-cell seed).
	Seed int64 `json:"seed,omitempty"`
	// FixedSecureCores pins the binding, skipping the search.
	FixedSecureCores int `json:"fixed_secure_cores,omitempty"`
	// Optimal swaps the gradient heuristic for the exhaustive oracle.
	Optimal bool `json:"optimal,omitempty"`
	// OptimalStride coarsens the exhaustive search (default 1).
	OptimalStride int `json:"optimal_stride,omitempty"`
	// SearchWorkers parallelizes the Optimal search probes.
	SearchWorkers int `json:"search_workers,omitempty"`
	// TimeoutMs caps this request (0 = the server default).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

func (q Query) scale() float64 {
	if q.Scale <= 0 {
		return 1
	}
	return q.Scale
}

// Options maps the query onto the driver's run options.
func (q Query) Options() driver.Options {
	return driver.Options{
		Scale:            q.scale(),
		FixedSecureCores: q.FixedSecureCores,
		Optimal:          q.Optimal,
		OptimalStride:    q.OptimalStride,
		SearchWorkers:    q.SearchWorkers,
		Seed:             q.Seed,
	}
}

// key is the trace-cache identity of the query.
func (q Query) key(entry apps.Entry) TraceKey {
	return TraceKey{App: entry.Name, Scale: q.scale(), Seed: q.Seed}
}

// Resolve maps an application name (catalog alias or paper label) and a
// model name (case-insensitive) to their factories.
func Resolve(app, model string) (apps.Entry, func() enclave.Model, error) {
	entry, err := apps.Find(app)
	if err != nil {
		return apps.Entry{}, nil, err
	}
	for _, mf := range driver.ModelFactories() {
		if strings.EqualFold(mf().Name(), strings.TrimSpace(model)) {
			return entry, mf, nil
		}
	}
	var names []string
	for _, mf := range driver.ModelFactories() {
		names = append(names, mf().Name())
	}
	return apps.Entry{}, nil, fmt.Errorf("unknown model %q (known: %s)", model, strings.Join(names, ", "))
}

// resolve is Resolve for one query, also rejecting a pinned binding that
// would leave a cluster without cores — before admission or any capture.
func (s *Server) resolve(q Query) (apps.Entry, func() enclave.Model, error) {
	if cores := s.cfg.Arch.Cores(); q.FixedSecureCores < 0 || q.FixedSecureCores >= cores {
		return apps.Entry{}, nil, fmt.Errorf("fixed_secure_cores %d must be 0 (search) or within [1, %d]", q.FixedSecureCores, cores-1)
	}
	return Resolve(q.App, q.Model)
}

// SearchResponse is /v1/search's body: the chosen binding and the
// predicted completion/breakdown a run at that binding measures.
type SearchResponse struct {
	App              string `json:"app"`
	Model            string `json:"model"`
	SecureCores      int    `json:"secure_cores"`
	Probes           int    `json:"probes"`
	CompletionCycles int64  `json:"completion_cycles"`
	ComputeCycles    int64  `json:"compute_cycles"`
	EntryExitCycles  int64  `json:"entry_exit_cycles"`
	PurgeCycles      int64  `json:"purge_cycles"`
	ReconfigCycles   int64  `json:"reconfig_cycles"`
}

// GridRequest is /v1/grid's body.
type GridRequest struct {
	Cells []Query `json:"cells"`
	// Workers bounds the fan-out (0 = the server's GridWorkers).
	Workers int `json:"workers,omitempty"`
	// TimeoutMs caps the whole batch (0 = the server default).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// GridCell is one cell of a /v1/grid response.
type GridCell struct {
	Key    string         `json:"key"`
	Result *driver.Result `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// GridResponse is /v1/grid's body.
type GridResponse struct {
	Cells   []GridCell `json:"cells"`
	Workers int        `json:"workers"`
}

// StatusResponse is /v1/status's body.
type StatusResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Ready         bool    `json:"ready"`
	Served        int64   `json:"served"`
	// LiveCaptures counts payload executions (driver.CaptureTrace calls):
	// the work replay, the store and peer fetch all exist to avoid.
	LiveCaptures int64          `json:"live_captures"`
	InFlight     InFlightStats  `json:"in_flight"`
	Admission    AdmissionStats `json:"admission"`
	Cache        CacheStats     `json:"cache"`
	Store        *StoreStatus   `json:"store,omitempty"`
	Fleet        *FleetStatus   `json:"fleet,omitempty"`
}

// InFlightStats counts requests currently executing per endpoint.
type InFlightStats struct {
	Search   int64 `json:"search"`
	Run      int64 `json:"run"`
	Grid     int64 `json:"grid"`
	Scenario int64 `json:"scenario"`
	Joint    int64 `json:"joint"`
}

// errorResponse is the body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// errorStatus maps an execution error to an HTTP status.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, errBodyTooLarge):
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusInternalServerError
	}
}

// writeWorkError maps an execution error onto the wire, attaching the
// Retry-After hint to shed responses so clients back off by the server's
// clock, not a guess.
func (s *Server) writeWorkError(w http.ResponseWriter, err error) {
	status := errorStatus(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", s.retryAfterValue())
	}
	writeError(w, status, err)
}

// retryAfterValue renders the Retry-After hint as fractional seconds
// jittered uniformly over [0.5x, 1.5x) of the configured base. Without
// jitter, every client a shed wave turned away retries in lockstep
// against the same shard and the herd re-forms on schedule; the spread
// de-correlates them. service.Client honors the fractional value exactly;
// a standards-strict client that parses integer seconds still backs off,
// just on a coarser clock.
func (s *Server) retryAfterValue() string {
	secs := s.cfg.RetryAfter.Seconds() * (0.5 + rand.Float64())
	return strconv.FormatFloat(secs, 'f', 3, 64)
}

// decodeBody parses a JSON request body, bounded by maxRequestBody. The
// body must be exactly one JSON value: anything after it but whitespace
// is rejected, not silently ignored.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
		if !errors.As(err, new(*http.MaxBytesError)) {
			err = errors.New("trailing data after the JSON value")
		}
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return fmt.Errorf("request body exceeds %d bytes: %w", mbe.Limit, errBodyTooLarge)
	}
	return fmt.Errorf("bad request body: %w", err)
}

// decodeStatus picks the status for a decodeBody error.
func decodeStatus(err error) int {
	if errors.Is(err, errBodyTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// requestContext derives the per-request deadline.
func (s *Server) requestContext(r *http.Request, timeoutMs int64) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		// Clamped: past 2^63 ns the product would wrap to no deadline at
		// all or to one microseconds away.
		timeout = time.Duration(min(timeoutMs, int64(math.MaxInt64/time.Millisecond))) * time.Millisecond
	}
	if timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), timeout)
}

// ctxInterrupt adapts a request context to driver.Options.Interrupt: the
// replay or search stops at its next checkpoint once the request is
// abandoned, instead of completing for a caller that already got a 504.
func ctxInterrupt(ctx context.Context) func() error {
	return ctx.Err
}

// Cache-source header values: how the trace behind a response was
// obtained.
const (
	srcHit     = "hit"     // settled LRU entry (or coalesced onto one capture)
	srcStore   = "store"   // loaded from the persistent store
	srcPeer    = "peer"    // fetched from a fleet peer (capture avoided)
	srcCapture = "capture" // freshly captured
)

// cacheHeader reports how the trace behind a response was obtained.
func cacheHeader(w http.ResponseWriter, src string) {
	w.Header().Set("X-Ironhide-Cache", src)
}

// outcome is one handler's computed response.
type outcome struct {
	body any
	src  string // X-Ironhide-Cache value ("" = no header)
	err  error
}

// plan is a validated POST request, ready for admission: its timeout_ms
// and the work that computes its response.
type plan struct {
	timeoutMs int64
	work      func(ctx context.Context) outcome
	// stream, when set, answers in place of respond (the streamed
	// scenario): it writes the response itself and releases the admission
	// slot when its work settles.
	stream func(ctx context.Context, w http.ResponseWriter, r *http.Request)
}

// endpoint is the one request path of every POST simulation endpoint:
// count the request in flight, decode the body (400, or 413 past the size
// cap), validate it (400, before any work), derive the deadline, take an
// admission slot (503 + Retry-After when saturated), then respond.
// prepare is the endpoint's own part: its validation and its work.
//
// The admission slot is held until the admitted work settles, not until
// the handler returns — a timed-out request's background work occupies
// its slot until a cancellation checkpoint stops it, which is exactly the
// capacity the gate is protecting.
func endpoint[R any](s *Server, inflight *atomic.Int64, prepare func(req *R) (plan, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		inflight.Add(1)
		defer inflight.Add(-1)
		var req R
		if err := decodeBody(w, r, &req); err != nil {
			writeError(w, decodeStatus(err), err)
			return
		}
		p, err := prepare(&req)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		ctx, cancel := s.requestContext(r, p.timeoutMs)
		defer cancel()
		if err := s.gate.acquire(ctx); err != nil {
			s.writeWorkError(w, err)
			return
		}
		if p.stream != nil {
			p.stream(ctx, w, r)
			return
		}
		s.respond(ctx, w, p.work)
	}
}

// respond runs work on its own goroutine and writes its outcome, mapping
// a ctx expiry to 504 while the work finishes in the background (a
// timed-out capture still fills the cache; see the package doc). The
// caller must hold an admission slot: it is released when the work
// settles.
func (s *Server) respond(ctx context.Context, w http.ResponseWriter, work func(context.Context) outcome) {
	ch := make(chan outcome, 1)
	go func() {
		// The slot is returned before the handler can write the outcome, so
		// a client that has its answer never finds its own slot still held.
		o := work(ctx)
		s.gate.release()
		ch <- o
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			s.writeWorkError(w, o.err)
			return
		}
		if o.src != "" {
			cacheHeader(w, o.src)
		}
		writeJSON(w, http.StatusOK, o.body)
	case <-ctx.Done():
		writeError(w, http.StatusGatewayTimeout, ctx.Err())
	}
}

// getTrace fetches the query's trace through four levels: the LRU cache,
// the persistent store (read-through), the key's fleet peers (fetched
// over the store's checksummed framing, CRC re-verified on receipt), then
// a fresh capture. Peer fetches and captures both write through to the
// store, so a warmed shard stays warm across a restart. src reports which
// level answered: srcHit, srcStore, srcPeer or srcCapture.
func (s *Server) getTrace(ctx context.Context, entry apps.Entry, key TraceKey, opts driver.Options) (*trace.Trace, string, error) {
	fromStore, fromPeer := false, false
	tr, hit, err := s.cache.GetOrCapture(ctx, key, func(interrupt func() error) (*trace.Trace, error) {
		if stored, ok := s.persist.load(key); ok {
			fromStore = true
			return stored, nil
		}
		if fetched, _, ok := s.peers.fetch(ctx, key); ok {
			fromPeer = true
			s.persist.save(key, fetched)
			return fetched, nil
		}
		opts.Interrupt = interrupt
		s.liveCaptures.Add(1)
		captured, err := driver.CaptureTrace(s.cfg.Arch, entry.Factory, opts)
		if err == nil {
			s.persist.save(key, captured)
		}
		return captured, err
	})
	switch {
	case err != nil:
		return nil, "", err
	case hit:
		return tr, srcHit, nil
	case fromStore:
		return tr, srcStore, nil
	case fromPeer:
		return tr, srcPeer, nil
	default:
		return tr, srcCapture, nil
	}
}

// sharedTraces resolves the seed-independent traces that scenario phases
// and joint co-runs replay: one application at one scale is cached under
// seed 0 (the seed steers timelines, run seeds and attestation keys,
// never the recorded stream), so one capture serves every such request.
// worst reports the most expensive source any resolution touched — the
// X-Ironhide-Cache value of the whole response. traceFor is safe for
// concurrent use.
func (s *Server) sharedTraces(ctx context.Context) (traceFor func(apps.Entry, float64) (*trace.Trace, error), worst func() string) {
	var mu sync.Mutex
	rank := map[string]int{srcHit: 0, srcStore: 1, srcPeer: 2, srcCapture: 3}
	worstSrc := srcHit
	traceFor = func(entry apps.Entry, scale float64) (*trace.Trace, error) {
		tr, src, err := s.getTrace(ctx, entry, TraceKey{App: entry.Name, Scale: scale}, driver.Options{Scale: scale})
		if err != nil {
			return nil, err
		}
		mu.Lock()
		if rank[src] > rank[worstSrc] {
			worstSrc = src
		}
		mu.Unlock()
		return tr, nil
	}
	worst = func() string {
		mu.Lock()
		defer mu.Unlock()
		return worstSrc
	}
	return traceFor, worst
}

// queryPlan is the one step /v1/search and /v1/run share: resolve the
// query (and let check reject its model) before admission, then fetch its
// trace and answer it under the query's options, interruptible by the
// request context.
func (s *Server) queryPlan(q *Query, check func(enclave.Model) error, answer func(mf func() enclave.Model, tr *trace.Trace, opts driver.Options) (any, error)) (plan, error) {
	entry, mf, err := s.resolve(*q)
	if err != nil {
		return plan{}, err
	}
	if check != nil {
		if err := check(mf()); err != nil {
			return plan{}, err
		}
	}
	return plan{timeoutMs: q.TimeoutMs, work: func(ctx context.Context) outcome {
		opts := q.Options()
		tr, src, err := s.getTrace(ctx, entry, q.key(entry), opts)
		if err != nil {
			return outcome{err: err}
		}
		opts.Interrupt = ctxInterrupt(ctx)
		body, err := answer(mf, tr, opts)
		return outcome{src: src, body: body, err: err}
	}}, nil
}

func (s *Server) searchPlan(q *Query) (plan, error) {
	spatial := func(m enclave.Model) error {
		if m.Temporal() {
			return fmt.Errorf("model %s time-shares the whole machine and has no cluster binding to search", m.Name())
		}
		return nil
	}
	return s.queryPlan(q, spatial, func(mf func() enclave.Model, tr *trace.Trace, opts driver.Options) (any, error) {
		// The run searches the binding itself and reports its outcome.
		res, err := driver.RunTrace(s.cfg.Arch, mf(), tr, opts)
		if err != nil {
			return nil, err
		}
		return SearchResponse{
			App:              res.App,
			Model:            res.Model,
			SecureCores:      res.SecureCores,
			Probes:           res.SearchProbes,
			CompletionCycles: res.CompletionCycles,
			ComputeCycles:    res.ComputeCycles(),
			EntryExitCycles:  res.EntryExitCycles,
			PurgeCycles:      res.PurgeCycles,
			ReconfigCycles:   res.ReconfigCycles,
		}, nil
	})
}

func (s *Server) runPlan(q *Query) (plan, error) {
	// The body is exactly the driver Result, so an online answer can be
	// diffed byte-for-byte against the batch path.
	return s.queryPlan(q, nil, func(mf func() enclave.Model, tr *trace.Trace, opts driver.Options) (any, error) {
		return driver.RunTrace(s.cfg.Arch, mf(), tr, opts)
	})
}

func (s *Server) gridPlan(req *GridRequest) (plan, error) {
	if len(req.Cells) == 0 {
		return plan{}, fmt.Errorf("empty grid")
	}
	if len(req.Cells) > MaxGridCells {
		return plan{}, fmt.Errorf("grid of %d cells exceeds the %d-cell limit", len(req.Cells), MaxGridCells)
	}
	// Validate every cell before running any.
	entries := make([]apps.Entry, len(req.Cells))
	models := make([]func() enclave.Model, len(req.Cells))
	for i, q := range req.Cells {
		if q.TimeoutMs != 0 {
			return plan{}, fmt.Errorf("cell %d: timeout_ms is per request, not per cell — set it on the grid", i)
		}
		entry, mf, err := s.resolve(q)
		if err != nil {
			return plan{}, fmt.Errorf("cell %d: %w", i, err)
		}
		entries[i] = entry
		models[i] = mf
	}
	workers := req.Workers
	if workers <= 0 || workers > s.cfg.GridWorkers {
		workers = s.cfg.GridWorkers
	}
	return plan{timeoutMs: req.TimeoutMs, work: func(ctx context.Context) outcome {
		// Capture (or fetch) each distinct trace once, fanned out over the
		// worker pool, so the grid shares captures across its cells.
		type prefetched struct {
			tr  *trace.Trace
			err error
		}
		keyIndex := map[TraceKey]int{}
		var unique []int // cell index introducing each distinct key
		keyOf := func(i int) TraceKey {
			return req.Cells[i].key(entries[i])
		}
		for i := range req.Cells {
			if _, ok := keyIndex[keyOf(i)]; !ok {
				keyIndex[keyOf(i)] = len(unique)
				unique = append(unique, i)
			}
		}
		traces, _ := runner.Map(workers, unique, func(_ int, cell int) (prefetched, error) {
			tr, _, err := s.getTrace(ctx, entries[cell], keyOf(cell), req.Cells[cell].Options())
			return prefetched{tr: tr, err: err}, nil
		})

		var jobs []runner.Job
		var jobCell []int // jobs[j] runs response cell jobCell[j]
		resp := GridResponse{Cells: make([]GridCell, len(req.Cells)), Workers: workers}
		for i, q := range req.Cells {
			key := fmt.Sprintf("%s/%s", entries[i].Alias, models[i]().Name())
			resp.Cells[i].Key = key
			pf := traces[keyIndex[keyOf(i)]]
			if pf.err != nil {
				resp.Cells[i].Error = pf.err.Error()
				continue
			}
			opts := q.Options()
			if opts.Seed == 0 {
				// Seed by request cell, not job-list position: a failed
				// capture compacts the job list, and must not shift the
				// seeds (and results) of the surviving cells.
				opts.Seed = runner.SeedFor(1, i)
			}
			// An abandoned batch stops each in-flight replay at its next
			// round checkpoint, complementing the dispatch-level Ctx below.
			opts.Interrupt = ctxInterrupt(ctx)
			jobs = append(jobs, runner.Job{Key: key, Model: models[i], Opts: opts, Trace: pf.tr})
			jobCell = append(jobCell, i)
		}
		// Ctx lets an abandoned batch stop dispatching replay jobs instead
		// of burning the pool on results nobody will read.
		rn := runner.Runner{Cfg: s.cfg.Arch, Workers: workers, Ctx: ctx}
		results, _ := rn.Run(jobs)
		for j, rr := range results {
			i := jobCell[j]
			if rr.Err != nil {
				resp.Cells[i].Error = rr.Err.Error()
				continue
			}
			resp.Cells[i].Result = rr.Res
		}
		return outcome{body: resp}
	}}, nil
}

// MaxScenarioEvents bounds one /v1/scenario timeline.
const MaxScenarioEvents = 64

// ScenarioRequest is /v1/scenario's body: a scenario.Spec plus the
// request deadline.
type ScenarioRequest struct {
	scenario.Spec
	// TimeoutMs caps this request (0 = the server default).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Stream selects the streamed response: engine phase events framed as
	// NDJSON (or SSE under Accept: text/event-stream) chunks, terminated
	// by the full Report. See stream.go for the framing and failure
	// semantics.
	Stream bool `json:"stream,omitempty"`
}

func (s *Server) scenarioPlan(req *ScenarioRequest) (plan, error) {
	// Fail fast on client mistakes: the timeline length, plus everything
	// Spec.Validate can reject without simulating (model, application
	// pool, and explicit-timeline semantics).
	if n := len(req.Spec.Timeline); n > MaxScenarioEvents || (n == 0 && req.Spec.Events > MaxScenarioEvents) {
		return plan{}, fmt.Errorf("timeline exceeds the %d-event limit", MaxScenarioEvents)
	}
	if err := req.Spec.Validate(); err != nil {
		return plan{}, err
	}
	if req.Stream {
		return plan{timeoutMs: req.TimeoutMs, stream: func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
			s.streamScenario(ctx, w, r, req.Spec)
		}}, nil
	}
	return plan{timeoutMs: req.TimeoutMs, work: func(ctx context.Context) outcome {
		// The blocking path reports the worst trace source as the
		// X-Ironhide-Cache header; the streamed one in its terminal chunk.
		traceFor, worst := s.sharedTraces(ctx)
		rep, err := scenario.Run(s.cfg.Arch, req.Spec, scenario.Options{Workers: s.cfg.GridWorkers, TraceFor: traceFor})
		return outcome{src: worst(), body: rep, err: err}
	}}, nil
}

// MaxJointTenants bounds one /v1/joint co-tenancy request.
const MaxJointTenants = 8

// JointRequest is /v1/joint's body: the tenant applications that want the
// machine simultaneously, and the joint-search knobs.
type JointRequest struct {
	// Apps lists the tenants (catalog aliases), at least two.
	Apps []string `json:"apps"`
	// Scale multiplies round counts for captures and co-runs.
	Scale float64 `json:"scale,omitempty"`
	// SecureCores is the secure-cluster size to partition (0 = half).
	SecureCores int `json:"secure_cores,omitempty"`
	// Policy compares only the named packing policy ("" = every policy).
	Policy string `json:"policy,omitempty"`
	// Seed anchors the deterministic run seeds (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMs caps this request (0 = the server default).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// jointPlan answers POST /v1/joint: the joint scheduler partitions the
// machine between the requested tenants under each packing policy, scores
// every partition by co-running the tenants' traces (cached through the
// same trace levels as every other endpoint), and returns the ranked
// sched.Report.
func (s *Server) jointPlan(req *JointRequest) (plan, error) {
	if len(req.Apps) < 2 || len(req.Apps) > MaxJointTenants {
		return plan{}, fmt.Errorf("joint search needs 2..%d tenants, got %d", MaxJointTenants, len(req.Apps))
	}
	entries := make([]apps.Entry, len(req.Apps))
	for i, alias := range req.Apps {
		entry, err := apps.Find(alias)
		if err != nil {
			return plan{}, err
		}
		entries[i] = entry
	}
	policies, err := sched.PolicyByName(req.Policy)
	if err != nil {
		return plan{}, err
	}
	return plan{timeoutMs: req.TimeoutMs, work: func(ctx context.Context) outcome {
		scale := req.Scale
		if scale <= 0 {
			scale = 1
		}
		traceFor, worst := s.sharedTraces(ctx)
		tenants := make([]sched.Tenant, len(entries))
		for i, entry := range entries {
			tr, err := traceFor(entry, scale)
			if err != nil {
				return outcome{err: err}
			}
			tenants[i] = sched.Tenant{Name: entry.Alias, Trace: tr}
		}
		rep, err := sched.JointSearch(s.cfg.Arch, tenants, sched.Options{
			Scale:       scale,
			SecureCores: req.SecureCores,
			Workers:     s.cfg.GridWorkers,
			Seed:        req.Seed,
			Policies:    policies,
			Interrupt:   ctxInterrupt(ctx),
		})
		return outcome{src: worst(), body: rep, err: err}
	}}, nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatusResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Ready:         s.ready.Load(),
		Served:        s.served.Load(),
		LiveCaptures:  s.liveCaptures.Load(),
		InFlight: InFlightStats{
			Search:   s.inflightSearch.Load(),
			Run:      s.inflightRun.Load(),
			Grid:     s.inflightGrid.Load(),
			Scenario: s.inflightScenario.Load(),
			Joint:    s.inflightJoint.Load(),
		},
		Admission: s.gate.stats(),
		Cache:     s.cache.Stats(),
		Store:     s.persist.status(),
		Fleet:     s.peers.status(s.storeKeys()),
	})
}

// storeKeys lists the committed persistent-store keys ("" store → none).
func (s *Server) storeKeys() []string {
	if s.persist == nil {
		return nil
	}
	return s.persist.st.Keys()
}

// handleTrace serves this shard's copy of a trace to fleet peers, framed
// exactly as the persistent store frames entries on disk (IHS1 magic,
// framed key, CRC-32C over the whole frame) — the fetching side re-runs
// the same integrity checks on receipt, so a bit flip anywhere between
// this shard's memory and the peer's socket is caught, never replayed.
// The endpoint is read-only and never triggers work: a shard that doesn't
// already hold the trace answers 404 and the asking peer falls back to
// its own capture.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	ks := r.PathValue("key")
	key, err := ParseTraceKey(ks)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeFrame := func(src string, frame []byte) {
		if s.peers != nil {
			s.peers.traceServed.Add(1)
		}
		cacheHeader(w, src)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(frame)
	}
	if tr, ok := s.cache.Peek(key); ok {
		writeFrame(srcHit, store.EncodeEntry(ks, trace.Marshal(tr)))
		return
	}
	if payload, ok := s.persist.raw(key); ok {
		writeFrame(srcStore, store.EncodeEntry(ks, payload))
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("trace %q not on this shard", ks))
}

// RingResponse is /v1/ring's body: this shard's view of the consistent-
// hash ring, plus — when ?key= is supplied — the replica set it computes
// for that key. Every fleet member must answer identically for the same
// key, and identically to a Router over the same membership.
type RingResponse struct {
	FleetIdentity
	Key    string   `json:"key,omitempty"`
	Owners []string `json:"owners,omitempty"`
}

func (s *Server) handleRing(w http.ResponseWriter, r *http.Request) {
	if s.peers == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("not a fleet member"))
		return
	}
	resp := RingResponse{FleetIdentity: s.peers.identity()}
	if key := r.URL.Query().Get("key"); key != "" {
		resp.Key = key
		resp.Owners = s.peers.ring.Owners(key, s.peers.replicas)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is process liveness: 200 whenever the server can answer
// at all, draining or not.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// ReadyzFleet reports shard identity, ring membership and prewarm
// progress inside a fleet member's /v1/readyz body, so a router or
// operator polling readiness also learns the shard's view of the ring.
type ReadyzFleet struct {
	FleetIdentity
	// Prewarmed counts traces loaded into the LRU from the store at boot.
	Prewarmed int `json:"prewarmed"`
	// StoreEntries counts committed traces on this shard's disk.
	StoreEntries int `json:"store_entries"`
}

// handleReadyz is load-balancer readiness: 200 while accepting new work,
// 503 once draining so traffic shifts away before the listener closes.
// Fleet members additionally report ring membership and prewarm progress.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{"status": "ready"}
	if s.peers != nil {
		fl := ReadyzFleet{FleetIdentity: s.peers.identity()}
		if s.persist != nil {
			fl.Prewarmed = s.persist.prewarmed
			fl.StoreEntries = s.persist.st.Len()
		}
		body["fleet"] = fl
	}
	if s.ready.Load() {
		writeJSON(w, http.StatusOK, body)
		return
	}
	body["status"] = "draining"
	w.Header().Set("Retry-After", s.retryAfterValue())
	writeJSON(w, http.StatusServiceUnavailable, body)
}
