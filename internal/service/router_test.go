package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ironhide/internal/scenario"
)

// routedFleet builds a 3-shard in-process fleet plus a router over it.
func routedFleet(t *testing.T, seed int64) ([]*Server, []*httptest.Server, *Router) {
	t.Helper()
	servers, tss := fleetServers(t, 3, seed, nil)
	members := make([]string, len(tss))
	for i, ts := range tss {
		members[i] = ts.URL
	}
	rt, err := NewRouter(RouterConfig{Members: members, Seed: seed, Backoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return servers, tss, rt
}

// The router must send each query to the shard its ring says owns the
// key — the same shard the fleet's own rings say.
func TestRouterRoutesToOwner(t *testing.T) {
	_, _, rt := routedFleet(t, 41)
	for seed := int64(0); seed < 12; seed++ {
		q := Query{App: "aes-query", Model: "IRONHIDE", Scale: 0.1, Seed: seed}
		key, err := RouteKey(q)
		if err != nil {
			t.Fatal(err)
		}
		var resp json.RawMessage
		res, err := rt.Query(context.Background(), "/v1/run", q, &resp)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Shard != rt.Owners(key)[0] {
			t.Fatalf("seed %d routed to %s, ring owner is %s", seed, res.Shard, rt.Owners(key)[0])
		}
		if res.Failovers != 0 {
			t.Fatalf("seed %d: %d failovers on a healthy fleet", seed, res.Failovers)
		}
	}
}

// Killing a key's owner must not fail the request: the router rides over
// to a replica, counts the failover, and the replica's answer is
// byte-identical to the owner's.
func TestRouterFailsOverOnDeadOwner(t *testing.T) {
	_, tss, rt := routedFleet(t, 41)
	q := Query{App: "aes-query", Model: "IRONHIDE", Scale: 0.1, Seed: 3}
	key, err := RouteKey(q)
	if err != nil {
		t.Fatal(err)
	}
	owners := rt.Owners(key)

	var healthy json.RawMessage
	if _, err := rt.Query(context.Background(), "/v1/run", q, &healthy); err != nil {
		t.Fatal(err)
	}

	// Kill the owner's listener.
	for i, ts := range tss {
		if ts.URL == owners[0] {
			tss[i].CloseClientConnections()
			tss[i].Close()
		}
	}

	var failedOver json.RawMessage
	res, err := rt.Query(context.Background(), "/v1/run", q, &failedOver)
	if err != nil {
		t.Fatalf("request failed despite a live replica: %v", err)
	}
	if res.Shard == owners[0] {
		t.Fatalf("answered by the dead owner %s?", res.Shard)
	}
	if res.Failovers == 0 {
		t.Fatal("failover not counted")
	}
	if !bytes.Equal(healthy, failedOver) {
		t.Fatalf("replica answer diverged from owner:\nowner:   %s\nreplica: %s", healthy, failedOver)
	}
}

// After Threshold consecutive failures the dead shard's breaker opens and
// the router stops paying a connection attempt for it on every request.
func TestRouterBreakerSkipsDeadShard(t *testing.T) {
	seed := int64(41)
	_, tss, _ := routedFleet(t, seed)
	members := make([]string, len(tss))
	for i, ts := range tss {
		members[i] = ts.URL
	}
	rt, err := NewRouter(RouterConfig{
		Members: members, Seed: seed,
		Backoff: time.Millisecond, BreakerThreshold: 2, BreakerCooldown: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{App: "aes-query", Model: "IRONHIDE", Scale: 0.1, Seed: 3}
	key, err := RouteKey(q)
	if err != nil {
		t.Fatal(err)
	}
	owner := rt.Owners(key)[0]
	for i, ts := range tss {
		if ts.URL == owner {
			tss[i].CloseClientConnections()
			tss[i].Close()
		}
	}

	// Drive the owner's breaker open, then confirm later requests skip it
	// entirely: a request fails over no more once the breaker eats the
	// attempt.
	for i := 0; i < 3; i++ {
		var resp json.RawMessage
		if _, err := rt.Query(context.Background(), "/v1/run", q, &resp); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if !rt.breakers[owner].Open() {
		t.Fatal("dead owner's breaker never opened")
	}
	for i := 0; i < 4; i++ {
		var resp json.RawMessage
		res, err := rt.Query(context.Background(), "/v1/run", q, &resp)
		if err != nil {
			t.Fatalf("post-open request %d: %v", i, err)
		}
		if res.Failovers != 0 {
			t.Fatalf("post-open request %d: open breaker still burning attempts (%d failovers)", i, res.Failovers)
		}
	}
}

// Deterministic failures — a malformed query the shards will always
// reject — must surface immediately, not retry across the fleet.
func TestRouterNonRetryableSurfacesImmediately(t *testing.T) {
	_, _, rt := routedFleet(t, 41)
	var resp json.RawMessage
	res, err := rt.Query(context.Background(), "/v1/run", Query{App: "aes-query", Model: "NO-SUCH-MODEL", Scale: 0.1}, &resp)
	if err == nil {
		t.Fatal("malformed query succeeded")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("want a 400 StatusError, got %v", err)
	}
	if res.Failovers != 0 {
		t.Fatal("a deterministic 400 was retried across shards")
	}
}

// A 503 past the per-shard retry budget fails over instead of failing:
// one shard sheds, its replica answers.
func TestRouterFailsOverOnPersistentShed(t *testing.T) {
	// A fake fleet: shard A always sheds, shard B answers.
	var aHits, bHits atomic.Int64
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		aHits.Add(1)
		w.Header().Set("Retry-After", "0.01")
		http.Error(w, `{"error":"saturated"}`, http.StatusServiceUnavailable)
	}))
	defer shed.Close()
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	defer ok.Close()

	rt, err := NewRouter(RouterConfig{Members: []string{shed.URL, ok.URL}, Seed: 1, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Find a key the shedding shard owns, so the router tries it first.
	q := Query{App: "aes-query", Model: "IRONHIDE", Scale: 0.1}
	for seed := int64(0); ; seed++ {
		q.Seed = seed
		key, err := RouteKey(q)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Owners(key)[0] == shed.URL {
			break
		}
		if seed > 100 {
			t.Fatal("no key owned by the shedding shard in 100 seeds")
		}
	}
	var resp struct {
		OK bool `json:"ok"`
	}
	res, err := rt.Query(context.Background(), "/v1/run", q, &resp)
	if err != nil {
		t.Fatalf("request failed despite a live replica: %v", err)
	}
	if res.Shard != ok.URL || !resp.OK {
		t.Fatalf("answered by %s (ok=%v), want the healthy replica", res.Shard, resp.OK)
	}
	if res.Failovers == 0 {
		t.Fatal("shed-past-budget not counted as a failover")
	}
	// The shedding shard got its per-try budget (initial + 1 retry), no more.
	if got := aHits.Load(); got != 2 {
		t.Fatalf("shedding shard got %d attempts, want 2 (per-try budget)", got)
	}
}

// Grid and scenario requests route whole to one shard.
func TestRouterGridAndScenario(t *testing.T) {
	_, _, rt := routedFleet(t, 41)
	greq := GridRequest{Cells: []Query{
		{App: "aes-query", Model: "IRONHIDE", Scale: 0.1, Seed: 1},
		{App: "sssp-graph", Model: "IRONHIDE", Scale: 0.1, Seed: 1},
	}}
	var gresp json.RawMessage
	res, err := rt.Grid(context.Background(), greq, &gresp)
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	if res.Shard == "" || len(gresp) == 0 {
		t.Fatalf("grid: shard %q, %d body bytes", res.Shard, len(gresp))
	}

	sreq := ScenarioRequest{Spec: scenario.Spec{
		Seed: 7, Scale: 0.05, Apps: []string{"aes-query", "sssp-graph"},
		Timeline: []scenario.Event{
			{Kind: scenario.Arrive, App: "aes-query"},
			{Kind: scenario.Arrive, App: "sssp-graph"},
			{Kind: scenario.Depart, App: "aes-query"},
		},
	}}
	var sresp json.RawMessage
	res, err = rt.Scenario(context.Background(), sreq, &sresp)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	if res.Shard == "" || len(sresp) == 0 {
		t.Fatalf("scenario: shard %q, %d body bytes", res.Shard, len(sresp))
	}
}
