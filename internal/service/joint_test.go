package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/sched"
)

// TestJointEndpointDeterministic: identical /v1/joint requests return
// byte-identical ranked reports, the second served from cached traces.
func TestJointEndpointDeterministic(t *testing.T) {
	s, ts := testServer(t, Config{Arch: arch.TileGx72Scaled(12)})
	req := JointRequest{
		Apps:   []string{"aes-query", "sssp-graph"},
		Scale:  0.05,
		Seed:   7,
		Policy: "interference-aware",
	}

	resp1, body1 := post(t, ts, "/v1/joint", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Ironhide-Cache"); got != "capture" {
		t.Fatalf("first request cache header %q, want capture", got)
	}

	resp2, body2 := post(t, ts, "/v1/joint", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("same seed, different bodies:\n%s\nvs\n%s", body1, body2)
	}
	if got := resp2.Header.Get("X-Ironhide-Cache"); got != "hit" {
		t.Fatalf("second request cache header %q, want hit", got)
	}

	var rep sched.Report
	if err := json.Unmarshal(body1, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Best != "interference-aware" || len(rep.Policies) != 1 {
		t.Fatalf("implausible report: best %q over %d policies", rep.Best, len(rep.Policies))
	}
	if len(rep.Policies[0].Tenants) != 2 {
		t.Fatalf("want 2 tenant scores, got %d", len(rep.Policies[0].Tenants))
	}
	for _, ten := range rep.Policies[0].Tenants {
		if ten.SoloCycles <= 0 || ten.CoCycles <= 0 || ten.Slowdown < 1 {
			t.Fatalf("tenant %s: implausible score %+v", ten.App, ten)
		}
	}

	// One capture per distinct app despite two requests.
	if st := s.Cache().Stats(); st.Captures != 2 {
		t.Fatalf("cache stats %+v: %d captures, want one per distinct app (2)", st, st.Captures)
	}
}

// TestJointEndpointValidation: malformed joint requests fail fast with 400
// before admission, so no trace is resolved and no simulation runs.
func TestJointEndpointValidation(t *testing.T) {
	s, ts := testServer(t, Config{Arch: arch.TileGx72Scaled(12), AdmitCapacity: 1})
	pair := []string{"aes-query", "sssp-graph"}
	cases := []struct {
		name string
		req  JointRequest
	}{
		{"one tenant", JointRequest{Apps: []string{"aes-query"}}},
		{"too many tenants", JointRequest{Apps: make([]string, MaxJointTenants+1)}},
		{"unknown app", JointRequest{Apps: []string{"aes-query", "nope"}}},
		{"unknown policy", JointRequest{Apps: pair, Policy: "bogus"}},
		{"secure cluster leaves no insecure core", JointRequest{Apps: pair, Scale: 0.02, SecureCores: 64}},
		{"secure cluster larger than the mesh", JointRequest{Apps: pair, Scale: 0.02, SecureCores: 100}},
		{"negative secure cluster", JointRequest{Apps: pair, Scale: 0.02, SecureCores: -1}},
		{"a secure core short per tenant", JointRequest{Apps: pair, Scale: 0.02, SecureCores: 1}},
	}
	for _, tc := range cases {
		resp, body := post(t, ts, "/v1/joint", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", tc.name, resp.StatusCode, body)
		}
	}
	if st := s.gate.stats(); st.Admitted != 0 {
		t.Fatalf("%d bad requests were admitted", st.Admitted)
	}
	if st := s.Cache().Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("bad requests resolved traces: %+v", st)
	}
}
