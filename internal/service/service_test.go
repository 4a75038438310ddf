package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ironhide/internal/apps"
	"ironhide/internal/arch"
	"ironhide/internal/driver"
)

// testServer starts an in-process server over the full-fidelity machine.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Arch.MeshWidth == 0 {
		cfg.Arch = arch.TileGx72()
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends body as JSON; a json.RawMessage body goes on the wire as is.
func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, ok := body.(json.RawMessage)
	if !ok {
		var err error
		if b, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// The headline concurrency contract: a thundering herd of identical
// /v1/search requests returns byte-identical bodies and costs exactly one
// trace capture.
func TestConcurrentIdenticalSearches(t *testing.T) {
	s, ts := testServer(t, Config{})
	q := Query{App: "sssp-graph", Model: "IRONHIDE", Scale: 0.1, Seed: 7}
	body, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	bodies := make([][]byte, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Error(err)
				return
			}
			statuses[i] = resp.StatusCode
			bodies[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body diverged:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	st := s.Cache().Stats()
	if st.Captures != 1 {
		t.Fatalf("cache stats %+v: %d captures for %d identical requests, want exactly 1", st, st.Captures, n)
	}
	if st.Hits+st.Coalesced != n-1 {
		t.Fatalf("cache stats %+v: hits+coalesced = %d, want %d", st, st.Hits+st.Coalesced, n-1)
	}

	var sr SearchResponse
	if err := json.Unmarshal(bodies[0], &sr); err != nil {
		t.Fatal(err)
	}
	if sr.SecureCores <= 0 || sr.CompletionCycles <= 0 {
		t.Fatalf("implausible search response: %+v", sr)
	}
}

// /v1/run must answer with the exact JSON the batch path produces for the
// same (app, model, scale, seed) — the online service is a cache in front
// of the batch driver, not a different simulator.
func TestRunMatchesBatchDriver(t *testing.T) {
	s, ts := testServer(t, Config{})
	for _, model := range []string{"IRONHIDE", "SGX"} {
		q := Query{App: "sssp-graph", Model: model, Scale: 0.1, Seed: 3}
		resp, body := post(t, ts, "/v1/run", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", model, resp.StatusCode, body)
		}

		entry, m, err := s.resolve(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := driver.Run(arch.TileGx72(), m, entry.Factory, driver.Options{Scale: q.Scale, Seed: q.Seed})
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		wantJSON = append(wantJSON, '\n')
		if !bytes.Equal(body, wantJSON) {
			t.Fatalf("%s: service body diverged from batch driver\nservice: %s\nbatch:   %s", model, body, wantJSON)
		}
	}
}

// A request deadline shorter than the capture returns 504 quickly; the
// capture keeps running in the background and fills the cache, so the
// retry is served as a hit.
func TestRequestDeadlineCancellation(t *testing.T) {
	s, ts := testServer(t, Config{})
	q := Query{App: "aes-query", Model: "IRONHIDE", Scale: 0.1, Seed: 5, TimeoutMs: 1}
	start := time.Now()
	resp, body := post(t, ts, "/v1/run", q)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s, want 504", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline response took %s, want prompt cancellation", elapsed)
	}

	// The abandoned capture still lands: a patient retry replays it.
	q.TimeoutMs = 120_000
	resp, body = post(t, ts, "/v1/run", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Ironhide-Cache"); got != "hit" {
		t.Fatalf("retry X-Ironhide-Cache = %q, want \"hit\"", got)
	}
	if st := s.Cache().Stats(); st.Captures != 1 {
		t.Fatalf("cache stats %+v: want exactly 1 capture across timeout and retry", st)
	}
}

// Cache eviction end to end: capacity 1, alternating keys re-capture.
func TestServiceCacheEviction(t *testing.T) {
	s, ts := testServer(t, Config{CacheTraces: 1})
	run := func(seed int64) {
		t.Helper()
		q := Query{App: "sssp-graph", Model: "Insecure", Scale: 0.1, Seed: seed, FixedSecureCores: 16}
		resp, body := post(t, ts, "/v1/run", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, body)
		}
	}
	run(1)
	run(2) // evicts seed 1
	run(1) // re-capture
	st := s.Cache().Stats()
	if st.Captures != 3 || st.Evictions < 2 {
		t.Fatalf("cache stats %+v: want 3 captures and >=2 evictions", st)
	}
}

// /v1/grid fans a batch out through the runner and shares one capture per
// distinct (app, scale, seed) across the model axis.
func TestGridSharesCaptures(t *testing.T) {
	s, ts := testServer(t, Config{})
	req := GridRequest{Workers: 2}
	for _, model := range []string{"Insecure", "SGX", "MI6", "IRONHIDE"} {
		req.Cells = append(req.Cells, Query{App: "sssp-graph", Model: model, Scale: 0.1, Seed: 11})
	}
	resp, body := post(t, ts, "/v1/grid", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var gr GridResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	if len(gr.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(gr.Cells))
	}
	for i, c := range gr.Cells {
		if c.Error != "" || c.Result == nil {
			t.Fatalf("cell %d (%s): error %q", i, c.Key, c.Error)
		}
		if c.Result.CompletionCycles <= 0 {
			t.Fatalf("cell %d (%s): implausible result %+v", i, c.Key, c.Result)
		}
	}
	if st := s.Cache().Stats(); st.Captures != 1 {
		t.Fatalf("cache stats %+v: want one capture shared across the model axis", st)
	}

	// Determinism: the same grid again is byte-identical and all-cached.
	_, body2 := post(t, ts, "/v1/grid", req)
	if !bytes.Equal(body, body2) {
		t.Fatalf("grid re-run diverged:\n%s\nvs\n%s", body, body2)
	}
	if st := s.Cache().Stats(); st.Captures != 1 {
		t.Fatalf("cache stats %+v: re-run should not re-capture", st)
	}
}

// One failing cell does not sink the grid: its error text names the cell,
// and the other cells still carry results. The failure is a cached trace
// captured at another scale than the cell asks to replay.
func TestGridReportsCellFailure(t *testing.T) {
	s, ts := testServer(t, Config{})
	entry, err := apps.Find("sssp-graph")
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := driver.CaptureTrace(s.cfg.Arch, entry.Factory, driver.Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	bad := Query{App: "sssp-graph", Model: "Insecure", Scale: 0.1, Seed: 11}
	if !s.Cache().Seed(bad.key(entry), wrong) {
		t.Fatal("seed refused")
	}
	req := GridRequest{Workers: 2, Cells: []Query{
		bad,
		{App: "sssp-graph", Model: "Insecure", Scale: 0.1, Seed: 12},
		{App: "sssp-graph", Model: "IRONHIDE", Scale: 0.1, Seed: 12},
	}}
	resp, body := post(t, ts, "/v1/grid", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var gr GridResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	want := `job "sssp-graph/Insecure": driver: trace captured at scale 0.05 cannot replay at scale 0.1`
	if c := gr.Cells[0]; c.Error != want || c.Result != nil {
		t.Fatalf("failing cell = %+v, want error %q", c, want)
	}
	for i, c := range gr.Cells[1:] {
		if c.Error != "" || c.Result == nil || c.Result.CompletionCycles <= 0 {
			t.Fatalf("cell %d (%s) lost its result: %+v", i+1, c.Key, c)
		}
	}
}

// Validation failures are 400s with JSON error bodies, before any
// simulation runs.
func TestBadRequests(t *testing.T) {
	s, ts := testServer(t, Config{})
	cases := []struct {
		path string
		body any
	}{
		{"/v1/search", Query{App: "nope", Model: "IRONHIDE"}},
		{"/v1/search", Query{App: "sssp-graph", Model: "warp-drive"}},
		{"/v1/search", Query{App: "sssp-graph", Model: "SGX"}}, // temporal: no binding
		{"/v1/run", Query{App: "nope", Model: "IRONHIDE"}},
		{"/v1/grid", GridRequest{}},
		{"/v1/grid", GridRequest{Cells: []Query{{App: "nope", Model: "IRONHIDE"}}}},
		{"/v1/grid", GridRequest{Cells: []Query{{App: "sssp-graph", Model: "IRONHIDE", TimeoutMs: 50}}}}, // per-cell deadline: grid-level only
		{"/v1/run", map[string]any{"app": "sssp-graph", "model": "IRONHIDE", "wat": 1}},
		// A pinned binding must leave both clusters a core (64-core machine).
		{"/v1/run", Query{App: "sssp-graph", Model: "Insecure", Scale: 0.1, FixedSecureCores: 64}},
		{"/v1/run", Query{App: "sssp-graph", Model: "IRONHIDE", Scale: 0.1, FixedSecureCores: 64}},
		{"/v1/run", Query{App: "sssp-graph", Model: "IRONHIDE", Scale: 0.1, FixedSecureCores: -1}},
		{"/v1/search", Query{App: "sssp-graph", Model: "IRONHIDE", Scale: 0.1, FixedSecureCores: 1000}},
		{"/v1/grid", GridRequest{Cells: []Query{{App: "sssp-graph", Model: "Insecure", Scale: 0.1, FixedSecureCores: 64}}}},
		// Raw bodies: one valid JSON value followed by anything but
		// whitespace is rejected, not silently truncated.
		{"/v1/run", json.RawMessage(`{"app":"sssp-graph","model":"IRONHIDE"} junk`)},
		{"/v1/search", json.RawMessage(`{"app":"sssp-graph","model":"IRONHIDE"}{"app":"aes-query"}`)},
		{"/v1/grid", json.RawMessage(`{"cells":[{"app":"sssp-graph","model":"IRONHIDE"}]} 7`)},
		{"/v1/scenario", json.RawMessage(`{"seed":1,"apps":["sssp-graph"],"events":2}]`)},
		{"/v1/joint", json.RawMessage(`{"apps":["aes-query","sssp-graph"]} null`)},
	}
	for _, tc := range cases {
		resp, body := post(t, ts, tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %+v: status %d: %s, want 400", tc.path, tc.body, resp.StatusCode, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Fatalf("%s: malformed error body %s", tc.path, body)
		}
	}
	if st := s.Cache().Stats(); st.Captures != 0 {
		t.Fatalf("cache stats %+v: bad requests must not trigger captures", st)
	}
}

// /v1/status reports uptime, served counts, and cache stats.
func TestStatus(t *testing.T) {
	_, ts := testServer(t, Config{})
	q := Query{App: "sssp-graph", Model: "IRONHIDE", Scale: 0.1, Seed: 9, FixedSecureCores: 16}
	if resp, body := post(t, ts, "/v1/run", q); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Served < 2 || st.Cache.Captures != 1 || st.UptimeSeconds < 0 {
		t.Fatalf("implausible status %+v", st)
	}
	if st.InFlight.Search != 0 || st.InFlight.Run != 0 || st.InFlight.Grid != 0 {
		t.Fatalf("in-flight counts should be zero at rest: %+v", st.InFlight)
	}
}

// peakCtx is a request context that records how many goroutines poll it
// at once. A search polls its interrupt before every probe and at every
// probe round, from the goroutine running that probe, so the peak bounds
// the probes in flight.
type peakCtx struct {
	context.Context
	mu       sync.Mutex
	in, peak int
}

func (c *peakCtx) Err() error {
	c.mu.Lock()
	c.in++
	c.peak = max(c.peak, c.in)
	c.mu.Unlock()
	time.Sleep(time.Millisecond) // hold the poll so concurrent probes overlap in it
	c.mu.Lock()
	c.in--
	c.mu.Unlock()
	return nil
}

// A client's search_workers cannot fan a search out past GridWorkers, on
// /v1/search or in a /v1/grid cell: each probe holds an arena machine of
// its own and the arena keeps every machine it builds.
func TestSearchWorkersClampedToGridWorkers(t *testing.T) {
	s, _ := testServer(t, Config{GridWorkers: 2})
	q := Query{App: "sssp-graph", Model: "IRONHIDE", Scale: 0.1, Seed: 3, Optimal: true, OptimalStride: 8, SearchWorkers: 8}
	search, err := s.searchPlan(&q)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := s.gridPlan(&GridRequest{Cells: []Query{q}})
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]plan{"search": search, "grid": grid} {
		ctx := &peakCtx{Context: context.Background()}
		out := p.work(ctx)
		if out.err != nil {
			t.Fatalf("%s: %v", name, out.err)
		}
		if g, ok := out.body.(GridResponse); ok && g.Cells[0].Error != "" {
			t.Fatalf("%s: %s", name, g.Cells[0].Error)
		}
		if ctx.peak != 2 {
			t.Fatalf("%s: %d goroutines polled the request at once, want GridWorkers = 2", name, ctx.peak)
		}
	}
}
