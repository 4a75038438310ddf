package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"ironhide/internal/scenario"
)

// TestScenarioEndpointDeterministic: identical /v1/scenario requests
// return byte-identical bodies, the second served entirely from cached
// traces — the phases of one timeline reuse per-app captures, and so do
// subsequent timelines.
func TestScenarioEndpointDeterministic(t *testing.T) {
	s, ts := testServer(t, Config{})
	req := ScenarioRequest{Spec: scenario.Spec{
		Seed: 42, Scale: 0.05, Apps: []string{"aes-query", "sssp-graph"},
		Timeline: []scenario.Event{
			{Kind: scenario.Arrive, App: "aes-query"},
			{Kind: scenario.Arrive, App: "sssp-graph"},
			{Kind: scenario.LoadShift, App: "aes-query", Factor: 2},
			{Kind: scenario.Depart, App: "aes-query"},
		},
	}}

	resp1, body1 := post(t, ts, "/v1/scenario", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Ironhide-Cache"); got != "capture" {
		t.Fatalf("first request cache header %q, want capture", got)
	}

	resp2, body2 := post(t, ts, "/v1/scenario", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("same seed, different bodies:\n%s\nvs\n%s", body1, body2)
	}
	if got := resp2.Header.Get("X-Ironhide-Cache"); got != "hit" {
		t.Fatalf("second request cache header %q, want hit", got)
	}

	var rep scenario.Report
	if err := json.Unmarshal(body1, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 4 || rep.Model != "IRONHIDE" {
		t.Fatalf("implausible report: %d phases under %s", len(rep.Phases), rep.Model)
	}
	if rep.RouteViolations != 0 {
		t.Fatalf("%d route violations", rep.RouteViolations)
	}

	// Captures happened once per distinct app despite two requests and
	// multiple phases per app.
	st := s.Cache().Stats()
	if st.Captures != 2 {
		t.Fatalf("cache stats %+v: %d captures, want one per distinct app (2)", st, st.Captures)
	}
}

// TestScenarioEndpointValidation: bad requests fail fast with 400 before
// any simulation runs.
func TestScenarioEndpointValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name string
		req  ScenarioRequest
	}{
		{"unknown app", ScenarioRequest{Spec: scenario.Spec{Apps: []string{"nope"}}}},
		{"temporal model", ScenarioRequest{Spec: scenario.Spec{Model: "MI6"}}},
		{"unknown model", ScenarioRequest{Spec: scenario.Spec{Model: "bogus"}}},
		{"oversize timeline", ScenarioRequest{Spec: scenario.Spec{Events: MaxScenarioEvents + 1}}},
		{"bad timeline app", ScenarioRequest{Spec: scenario.Spec{
			Timeline: []scenario.Event{{Kind: scenario.Arrive, App: "nope"}},
		}}},
		{"double arrive", ScenarioRequest{Spec: scenario.Spec{
			Timeline: []scenario.Event{
				{Kind: scenario.Arrive, App: "aes-query"},
				{Kind: scenario.Arrive, App: "aes-query"},
			},
		}}},
		{"depart non-resident", ScenarioRequest{Spec: scenario.Spec{
			Timeline: []scenario.Event{{Kind: scenario.Depart, App: "aes-query"}},
		}}},
		{"double arrive under label and alias", ScenarioRequest{Spec: scenario.Spec{
			Timeline: []scenario.Event{
				{Kind: scenario.Arrive, App: "<AES, QUERY>"},
				{Kind: scenario.Arrive, App: " aes-query"},
			},
		}}},
		{"bad factor", ScenarioRequest{Spec: scenario.Spec{
			Timeline: []scenario.Event{
				{Kind: scenario.Arrive, App: "aes-query"},
				{Kind: scenario.LoadShift, App: "aes-query"},
			},
		}}},
	}
	for _, tc := range cases {
		resp, body := post(t, ts, "/v1/scenario", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", tc.name, resp.StatusCode, body)
		}
	}
}

// TestScenarioPaperLabels: a pool of paper labels, and an explicit
// timeline that names one tenant by label, padded alias and alias, run
// to completion — the engine finds every tenant Validate found resident.
func TestScenarioPaperLabels(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, spec := range []scenario.Spec{
		{Seed: 3, Scale: 0.05, Events: 5, Apps: []string{"<AES, QUERY>"}},
		{Seed: 3, Scale: 0.05, Timeline: []scenario.Event{
			{Kind: scenario.Arrive, App: "<AES, QUERY>"},
			{Kind: scenario.LoadShift, App: " aes-query", Factor: 2},
			{Kind: scenario.Depart, App: "aes-query"},
		}},
	} {
		resp, body := post(t, ts, "/v1/scenario", ScenarioRequest{Spec: spec})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: status %d: %s", spec, resp.StatusCode, body)
		}
	}
}

// TestScenarioSharesTracesWithSearch: a scenario warms the cache for the
// other endpoints' seed-0 queries and vice versa — one capture serves the
// whole API surface.
func TestScenarioSharesTracesWithSearch(t *testing.T) {
	s, ts := testServer(t, Config{})
	req := ScenarioRequest{Spec: scenario.Spec{
		Seed: 9, Scale: 0.1, Apps: []string{"sssp-graph"},
		Timeline: []scenario.Event{{Kind: scenario.Arrive, App: "sssp-graph"}},
	}}
	if resp, body := post(t, ts, "/v1/scenario", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("scenario: status %d: %s", resp.StatusCode, body)
	}
	q := Query{App: "sssp-graph", Model: "IRONHIDE", Scale: 0.1}
	resp, body := post(t, ts, "/v1/search", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Ironhide-Cache"); got != "hit" {
		t.Fatalf("search after scenario: cache header %q, want hit", got)
	}
	if st := s.Cache().Stats(); st.Captures != 1 {
		t.Fatalf("cache stats %+v: want the scenario's capture to serve the search", st)
	}
}

// concurrent sanity: scenario requests racing search requests on the same
// key must coalesce onto one capture (run under -race in CI).
func TestScenarioRacesSearchOnOneCapture(t *testing.T) {
	s, ts := testServer(t, Config{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := ScenarioRequest{Spec: scenario.Spec{
				Seed: 5, Scale: 0.1, Apps: []string{"sssp-graph"},
				Timeline: []scenario.Event{{Kind: scenario.Arrive, App: "sssp-graph"}},
			}}
			if resp, body := post(t, ts, "/v1/scenario", req); resp.StatusCode != http.StatusOK {
				t.Errorf("scenario: status %d: %s", resp.StatusCode, body)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := Query{App: "sssp-graph", Model: "IRONHIDE", Scale: 0.1}
			if resp, body := post(t, ts, "/v1/search", q); resp.StatusCode != http.StatusOK {
				t.Errorf("search: status %d: %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	if st := s.Cache().Stats(); st.Captures != 1 {
		t.Fatalf("cache stats %+v: %d captures for one (app, scale) key", st, st.Captures)
	}
}
