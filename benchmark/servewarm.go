package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"ironhide/internal/arch"
	"ironhide/internal/runner"
	"ironhide/internal/service"
	"ironhide/internal/trace"
)

// opTimeout bounds one operation; nothing the benchmark sends should come
// near it.
const opTimeout = 60 * time.Second

// serveApps are the serving workloads' applications: one graph, one
// query and one OS service, from the cheapest query to a heavy one.
var serveApps = []string{"sssp-graph", "aes-query", "tc-graph", "memcached-os"}

// warmQuery is one kind of serve-warm request.
type warmQuery struct {
	path string
	q    service.Query
}

// serveWarm drives one in-process server whose traces are all cached:
// every request is search + replay + HTTP/JSON, never a capture.
type serveWarm struct {
	cfg     arch.Config
	seed    int64
	srv     *service.Server
	ht      *httptest.Server
	http    *http.Client
	queries []warmQuery
	want    [][]byte // reference body per query kind
	traces  map[string]*trace.Trace
	base    service.StatusResponse
}

// loadClient is the load generator's HTTP client: at most loadWorkers
// connections per server.
func loadClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     loadWorkers(),
		MaxIdleConnsPerHost: loadWorkers(),
	}}
}

func setupServeWarm(seed int64) (instance, error) {
	s := &serveWarm{cfg: machine(), seed: seed, http: loadClient(), traces: map[string]*trace.Trace{}}
	s.srv = service.New(service.Config{Arch: s.cfg})
	s.ht = httptest.NewServer(s.srv)
	// One fixed query seed per run: every request of the run hits the
	// same four cached traces.
	qseed := runner.SeedFor(seed, -1)
	for _, app := range serveApps {
		for _, m := range []string{"Insecure", "SGX", "MI6", "IRONHIDE"} {
			s.queries = append(s.queries, warmQuery{"/v1/run", service.Query{App: app, Model: m, Scale: scale, Seed: qseed}})
		}
		for _, m := range []string{"Insecure", "IRONHIDE"} {
			s.queries = append(s.queries, warmQuery{"/v1/search", service.Query{App: app, Model: m, Scale: scale, Seed: qseed}})
		}
	}
	entries, err := findApps(serveApps)
	if err != nil {
		s.close()
		return nil, err
	}
	for _, e := range entries {
		q := warmQuery{"/v1/run", service.Query{App: e.Alias, Model: "SGX", Scale: scale, Seed: qseed}}
		if _, _, err := s.post(q); err != nil { // the capture that warms the cache
			s.close()
			return nil, err
		}
		// The references replay the server's own cached traces.
		tr, ok := s.srv.Cache().Peek(service.TraceKey{App: e.Name, Scale: scale, Seed: qseed})
		if !ok {
			s.close()
			return nil, fmt.Errorf("trace of %s not cached after its first request", e.Alias)
		}
		s.traces[e.Alias] = tr
	}
	for _, q := range s.queries {
		b, err := s.direct(nil, 0, 0, q)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("reference %s %s: %w", q.path, q.q.App, err)
		}
		s.want = append(s.want, b)
	}
	return s, nil
}

// direct computes query q's body as direct layer calls.
func (s *serveWarm) direct(t *tracer, parent, op int, q warmQuery) ([]byte, error) {
	mf := modelFactory(q.q.Model)
	if q.path == "/v1/search" {
		return searchBody(t, parent, op, s.cfg, mf, s.traces[q.q.App], q.q.Options())
	}
	return runBody(t, parent, op, s.cfg, mf, s.traces[q.q.App], q.q.Options())
}

// post sends one request and returns the body and the cache source.
func (s *serveWarm) post(q warmQuery) ([]byte, string, error) {
	body, err := json.Marshal(q.q)
	if err != nil {
		return nil, "", err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ht.URL+q.path, bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.http.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("%s: status %d: %s", q.path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, resp.Header.Get("X-Ironhide-Cache"), nil
}

func (s *serveWarm) op(i int) ([]sample, error) {
	k := blockIndex(s.seed, i, len(s.queries))
	q := s.queries[k]
	t0 := time.Now()
	body, src, err := s.post(q)
	d := time.Since(t0)
	if err != nil {
		return nil, err
	}
	if src != "hit" {
		return nil, fmt.Errorf("%s %s/%s: trace source %q, want a cache hit", q.path, q.q.App, q.q.Model, src)
	}
	if !bytes.Equal(body, s.want[k]) {
		return nil, fmt.Errorf("%s %s/%s: body differs from the direct reference", q.path, q.q.App, q.q.Model)
	}
	return []sample{{k, d}}, nil
}

func (s *serveWarm) traced(t *tracer, parent, i int) error {
	k := blockIndex(s.seed, i, len(s.queries))
	body, err := s.direct(t, parent, i, s.queries[k])
	if err != nil {
		return err
	}
	if !bytes.Equal(body, s.want[k]) {
		return fmt.Errorf("traced %s %s: body differs from the reference", s.queries[k].path, s.queries[k].q.App)
	}
	return nil
}

func (s *serveWarm) begin() error {
	var err error
	s.base, err = status(s.ht.URL)
	return err
}

func (s *serveWarm) finish(from, to int) (counters, []error) {
	cs, err := cacheCounters([]string{s.ht.URL}, []service.StatusResponse{s.base})
	if err != nil {
		return cs, []error{err}
	}
	return cs, nil
}

func (s *serveWarm) ledger() ledgerInputs { return ledgerInputs{apps: serveApps} }

func (s *serveWarm) close() error {
	s.ht.Close()
	s.http.CloseIdleConnections()
	return nil
}

// status reads a server's /v1/status.
func status(url string) (service.StatusResponse, error) {
	var st service.StatusResponse
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	c := service.Client{BaseURL: url}
	_, err := c.GetJSON(ctx, "/v1/status", &st)
	return st, err
}

// cacheCounters reads the trace-cache hit fraction and the live captures
// the servers counted since their base snapshots.
func cacheCounters(urls []string, base []service.StatusResponse) (counters, error) {
	var hits, misses, live int64
	for i, u := range urls {
		st, err := status(u)
		if err != nil {
			return counters{}, err
		}
		hits += st.Cache.Hits - base[i].Cache.Hits
		misses += st.Cache.Misses - base[i].Cache.Misses
		live += st.LiveCaptures - base[i].LiveCaptures
	}
	cs := counters{liveCaptures: float64(live)}
	if hits+misses > 0 {
		cs.cacheHitFrac = float64(hits) / float64(hits+misses)
	}
	cs.notes = append(cs.notes, fmt.Sprintf("/v1/status over the window: %d cache hits, %d misses, %d live captures", hits, misses, live))
	return cs, nil
}
