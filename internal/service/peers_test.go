package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ironhide/internal/arch"
	"ironhide/internal/store"
	"ironhide/internal/trace"
)

// swappableHandler lets a fleet of httptest servers be started before the
// Servers that need each other's URLs exist.
type swappableHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swappableHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := s.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "not ready", http.StatusServiceUnavailable)
}

// fleetServers starts n in-process shards sharing one membership and
// placement seed. mutate tweaks each shard's config before construction.
func fleetServers(t *testing.T, n int, seed int64, mutate func(i int, cfg *Config)) ([]*Server, []*httptest.Server) {
	t.Helper()
	swaps := make([]*swappableHandler, n)
	tss := make([]*httptest.Server, n)
	members := make([]string, n)
	for i := range tss {
		swaps[i] = &swappableHandler{}
		tss[i] = httptest.NewServer(swaps[i])
		t.Cleanup(tss[i].Close)
		members[i] = tss[i].URL
	}
	servers := make([]*Server, n)
	for i := range servers {
		cfg := Config{
			Arch: arch.TileGx72(),
			Fleet: &FleetConfig{
				Self:    members[i],
				Members: members,
				Seed:    seed,
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		servers[i] = New(cfg)
		var h http.Handler = servers[i]
		swaps[i].h.Store(&h)
	}
	return servers, tss
}

// A shard that misses locally must obtain the trace from the peer that
// has it — over the checksummed store framing — instead of re-executing
// the payload, and answer byte-identically.
func TestPeerFetchInsteadOfRecapture(t *testing.T) {
	servers, tss := fleetServers(t, 2, 7, nil)
	q := Query{App: "aes-query", Model: "IRONHIDE", Scale: 0.1, Seed: 11}

	// Warm shard 0 (a capture: the fleet is cold).
	resp, first := post(t, tss[0], "/v1/run", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", resp.StatusCode, first)
	}
	if src := resp.Header.Get("X-Ironhide-Cache"); src != "capture" {
		t.Fatalf("warm-up src %q, want capture", src)
	}
	if shard := resp.Header.Get("X-Ironhide-Shard"); shard != tss[0].URL {
		t.Fatalf("X-Ironhide-Shard = %q, want %q", shard, tss[0].URL)
	}

	// The same query against shard 1 must be served via peer fetch: zero
	// payload executions on shard 1, identical bytes.
	resp, second := post(t, tss[1], "/v1/run", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer shard: status %d: %s", resp.StatusCode, second)
	}
	if src := resp.Header.Get("X-Ironhide-Cache"); src != "peer" {
		t.Fatalf("peer shard src %q, want peer", src)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("peer-fetched response diverged:\nshard0: %s\nshard1: %s", first, second)
	}
	if got := servers[1].liveCaptures.Load(); got != 0 {
		t.Fatalf("shard 1 executed %d captures; the trace should have come from its peer", got)
	}
	var fs *FleetStatus
	if fs = servers[1].peers.status(nil); fs.PeerServed != 1 || fs.PeerFetches != 1 {
		t.Fatalf("shard 1 fleet stats %+v: want exactly one peer fetch, served", *fs)
	}

	// A third shard-1 query is now a plain local hit.
	resp, _ = post(t, tss[1], "/v1/run", q)
	if src := resp.Header.Get("X-Ironhide-Cache"); src != "hit" {
		t.Fatalf("repeat src %q, want hit", src)
	}
}

// The trace endpoint round-trips the store framing, 404s on absent keys,
// and rejects malformed keys.
func TestTraceEndpoint(t *testing.T) {
	servers, tss := fleetServers(t, 1, 1, nil)
	q := Query{App: "aes-query", Model: "IRONHIDE", Scale: 0.1, Seed: 5}
	if resp, body := post(t, tss[0], "/v1/run", q); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: %d: %s", resp.StatusCode, body)
	}
	key := TraceKey{App: "<AES, QUERY>", Scale: 0.1, Seed: 5}
	hresp, err := tss[0].Client().Get(tss[0].URL + TracePath(key.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch status %d", hresp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(hresp.Body); err != nil {
		t.Fatal(err)
	}
	gotKey, payload, err := store.DecodeEntry(buf.Bytes())
	if err != nil {
		t.Fatalf("fetched frame failed integrity checks: %v", err)
	}
	if gotKey != key.String() {
		t.Fatalf("frame key %q, want %q", gotKey, key.String())
	}
	if _, err := trace.Unmarshal(payload); err != nil {
		t.Fatalf("fetched payload failed trace decode: %v", err)
	}
	if got := servers[0].peers.status(nil).TraceServed; got != 1 {
		t.Fatalf("trace_served = %d, want 1", got)
	}

	if resp, err := tss[0].Client().Get(tss[0].URL + TracePath(TraceKey{App: "<AES, QUERY>", Scale: 0.1, Seed: 999}.String())); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent key: err %v status %v, want 404", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp, err := tss[0].Client().Get(tss[0].URL + "/v1/trace/not-a-key"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad key: err %v status %v, want 400", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// A peer serving a bit-flipped trace frame must be caught by the CRC on
// receipt, quarantined as a source, and the request must fall through to
// a correct local capture. The quarantined peer is never consulted again.
func TestPeerFetchCorruptionQuarantinesPeer(t *testing.T) {
	q := Query{App: "aes-query", Model: "IRONHIDE", Scale: 0.1, Seed: 21}

	// An oracle server provides the honest frame to corrupt, and the
	// honest response bytes.
	_, oracleTS := testServer(t, Config{})
	resp, want := post(t, oracleTS, "/v1/run", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("oracle: %d: %s", resp.StatusCode, want)
	}
	key := TraceKey{App: "<AES, QUERY>", Scale: 0.1, Seed: 21}
	oresp, err := oracleTS.Client().Get(oracleTS.URL + TracePath(key.String()))
	if err != nil {
		t.Fatal(err)
	}
	var honest bytes.Buffer
	if _, err := honest.ReadFrom(oresp.Body); err != nil {
		t.Fatal(err)
	}
	oresp.Body.Close()

	// The evil peer serves every trace request a bit-flipped copy.
	var evilHits atomic.Int64
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		evilHits.Add(1)
		rot := append([]byte(nil), honest.Bytes()...)
		rot[len(rot)/2] ^= 0x40
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(rot)
	}))
	defer evil.Close()

	// The victim's fleet is {victim, evil}: every local miss consults the
	// evil peer first or second — either way it is consulted.
	victimTS := httptest.NewServer(http.NotFoundHandler())
	defer victimTS.Close()
	victim := New(Config{Arch: arch.TileGx72(), Fleet: &FleetConfig{
		Self:    victimTS.URL,
		Members: []string{victimTS.URL, evil.URL},
		Seed:    3,
	}})
	victimTS.Config.Handler = victim

	resp, got := post(t, victimTS, "/v1/run", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("victim: %d: %s", resp.StatusCode, got)
	}
	if src := resp.Header.Get("X-Ironhide-Cache"); src != "capture" {
		t.Fatalf("src %q, want capture (corrupt peer bytes must never be replayed)", src)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("victim response diverged from oracle:\noracle: %s\nvictim: %s", want, got)
	}
	if evilHits.Load() == 0 {
		t.Fatal("evil peer was never consulted — the test exercised nothing")
	}
	fs := victim.peers.status(nil)
	if fs.PeerCorrupt != 1 {
		t.Fatalf("peer_corrupt = %d, want 1", fs.PeerCorrupt)
	}
	if len(fs.QuarantinedPeers) != 1 || fs.QuarantinedPeers[0] != evil.URL {
		t.Fatalf("quarantined peers %v, want exactly the evil peer", fs.QuarantinedPeers)
	}

	// A different key misses again — but the quarantined peer must not be
	// consulted a second time.
	before := evilHits.Load()
	q2 := q
	q2.Seed = 22
	if resp, body := post(t, victimTS, "/v1/run", q2); resp.StatusCode != http.StatusOK {
		t.Fatalf("second query: %d: %s", resp.StatusCode, body)
	}
	if evilHits.Load() != before {
		t.Fatal("quarantined peer was consulted again")
	}
}

// A frame whose CRC is intact but whose payload is not a decodable trace
// (e.g. a peer on a different codec version) is also rejected and
// quarantined — corrupt-but-checksummed is still corrupt.
func TestPeerFetchUndecodablePayloadQuarantined(t *testing.T) {
	key := TraceKey{App: "<AES, QUERY>", Scale: 0.1, Seed: 31}
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Valid framing, garbage payload: CRC passes, trace decode cannot.
		_, _ = w.Write(store.EncodeEntry(key.String(), []byte{0xff, 0xfe, 0xfd, 0xfc}))
	}))
	defer evil.Close()

	victimTS := httptest.NewServer(http.NotFoundHandler())
	defer victimTS.Close()
	victim := New(Config{Arch: arch.TileGx72(), Fleet: &FleetConfig{
		Self:    victimTS.URL,
		Members: []string{victimTS.URL, evil.URL},
		Seed:    3,
	}})
	victimTS.Config.Handler = victim

	q := Query{App: "aes-query", Model: "IRONHIDE", Scale: 0.1, Seed: 31}
	resp, _ := post(t, victimTS, "/v1/run", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if src := resp.Header.Get("X-Ironhide-Cache"); src != "capture" {
		t.Fatalf("src %q, want capture", src)
	}
	fs := victim.peers.status(nil)
	if fs.PeerCorrupt != 1 || len(fs.QuarantinedPeers) != 1 {
		t.Fatalf("fleet stats %+v: want the undecodable peer quarantined", *fs)
	}
}

// A fleet of one must behave byte-identically to a plain single-node
// server: same bodies, no peer traffic, same cache-source progression.
func TestSingleShardFleetDegenerates(t *testing.T) {
	_, plainTS := testServer(t, Config{})
	servers, fleetTS := fleetServers(t, 1, 99, nil)

	for _, q := range []Query{
		{App: "aes-query", Model: "IRONHIDE", Scale: 0.1, Seed: 1},
		{App: "sssp-graph", Model: "SGX", Scale: 0.1, Seed: 2},
		{App: "aes-query", Model: "IRONHIDE", Scale: 0.1, Seed: 1}, // repeat: hit
	} {
		pr, pb := post(t, plainTS, "/v1/run", q)
		fr, fb := post(t, fleetTS[0], "/v1/run", q)
		if pr.StatusCode != http.StatusOK || fr.StatusCode != http.StatusOK {
			t.Fatalf("status %d vs %d", pr.StatusCode, fr.StatusCode)
		}
		if !bytes.Equal(pb, fb) {
			t.Fatalf("fleet-of-one diverged from single node for %+v:\nplain: %s\nfleet: %s", q, pb, fb)
		}
		if ps, fs := pr.Header.Get("X-Ironhide-Cache"), fr.Header.Get("X-Ironhide-Cache"); ps != fs {
			t.Fatalf("cache source diverged for %+v: plain %q, fleet %q", q, ps, fs)
		}
	}
	fs := servers[0].peers.status(nil)
	if fs.PeerFetches != 0 || fs.PeerServed != 0 {
		t.Fatalf("fleet of one consulted peers: %+v", *fs)
	}
}

// Shard-aware observability: /v1/readyz reports membership and prewarm,
// /v1/ring answers ownership identically on every shard and matches the
// client-side router, /v1/status carries fleet stats.
func TestFleetObservability(t *testing.T) {
	_, tss := fleetServers(t, 3, 17, nil)
	members := []string{tss[0].URL, tss[1].URL, tss[2].URL}
	rt, err := NewRouter(RouterConfig{Members: members, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	for i, ts := range tss {
		// readyz: fleet block present with full membership.
		resp, err := ts.Client().Get(ts.URL + "/v1/readyz")
		if err != nil {
			t.Fatal(err)
		}
		var ready struct {
			Status string      `json:"status"`
			Fleet  ReadyzFleet `json:"fleet"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ready)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ready.Status != "ready" || ready.Fleet.Self != ts.URL || len(ready.Fleet.Members) != 3 {
			t.Fatalf("shard %d readyz %+v", i, ready)
		}

		// ring: ownership must agree with the client router for a spread
		// of keys — the coordination-free contract.
		for seed := int64(0); seed < 20; seed++ {
			key := TraceKey{App: "<AES, QUERY>", Scale: 0.25, Seed: seed}.String()
			resp, err := ts.Client().Get(ts.URL + "/v1/ring?key=" + url.QueryEscape(key))
			if err != nil {
				t.Fatal(err)
			}
			var ring RingResponse
			err = json.NewDecoder(resp.Body).Decode(&ring)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(ring.Owners) != fmt.Sprint(rt.Owners(key)) {
				t.Fatalf("shard %d ownership of %q = %v, router says %v", i, key, ring.Owners, rt.Owners(key))
			}
		}

		// status: fleet block present.
		resp, err = ts.Client().Get(ts.URL + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		var st StatusResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Fleet == nil || st.Fleet.Self != ts.URL || st.Fleet.Replicas != 2 {
			t.Fatalf("shard %d status fleet %+v", i, st.Fleet)
		}
	}
}

// The peer-fetch and trace-serving paths must not leak goroutines: after
// a burst of cross-shard fetches the count settles back to the baseline.
func TestPeerFetchNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		servers, tss := fleetServers(t, 2, 7, nil)
		q := Query{App: "aes-query", Model: "IRONHIDE", Scale: 0.1}
		for seed := int64(50); seed < 54; seed++ {
			q.Seed = seed
			post(t, tss[0], "/v1/run", q)
			post(t, tss[1], "/v1/run", q) // peer fetch or hit
		}
		for _, s := range servers {
			s.peers.http.CloseIdleConnections()
		}
		for _, ts := range tss {
			ts.Client().CloseIdleConnections()
			ts.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base+8 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak on peer-fetch paths: %d now vs %d at start", runtime.NumGoroutine(), base)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// /v1/status, /v1/ring and /v1/readyz all lead with the fleet identity,
// under the same field names in the same order.
func TestFleetIdentityLeadsEveryBody(t *testing.T) {
	id := FleetIdentity{Self: "a", Members: []string{"a", "b"}, Seed: 1, VNodes: 2, Replicas: 3}
	const head = `{"self":"a","members":["a","b"],"seed":1,"vnodes":2,"replicas":3,`
	for _, body := range []any{FleetStatus{FleetIdentity: id}, RingResponse{FleetIdentity: id, Key: "k"}, ReadyzFleet{FleetIdentity: id}} {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte(head)) {
			t.Fatalf("%T renders %s, want it to start %s", body, b, head)
		}
	}
}
