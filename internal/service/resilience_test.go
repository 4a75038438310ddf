package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ironhide/internal/arch"
	"ironhide/internal/store"
)

// With every slot busy and no queue, a request is shed promptly with 503
// and the configured Retry-After hint; once capacity frees up the same
// request is admitted.
func TestOverloadShedsWith503(t *testing.T) {
	s, ts := testServer(t, Config{AdmitCapacity: 1, AdmitQueue: 0, RetryAfter: 2 * time.Second})
	if err := s.gate.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	q := Query{App: "sssp-graph", Model: "Insecure", Scale: 0.1, Seed: 2, FixedSecureCores: 16}
	start := time.Now()
	resp, body := post(t, ts, "/v1/run", q)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s, want 503", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("shed took %v, want prompt rejection", elapsed)
	}
	// The hint is jittered over [0.5x, 1.5x) of the configured 2s base so a
	// shed herd doesn't retry in lockstep; it must parse as fractional
	// seconds inside that window.
	got := resp.Header.Get("Retry-After")
	secs, err := strconv.ParseFloat(got, 64)
	if err != nil {
		t.Fatalf("Retry-After = %q: not a fractional-seconds value: %v", got, err)
	}
	if secs < 1 || secs >= 3 {
		t.Fatalf("Retry-After = %v, want within the jitter window [1, 3) for a 2s base", secs)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, "overloaded") {
		t.Fatalf("shed body %s", body)
	}
	if st := s.gate.stats(); st.Shed != 1 {
		t.Fatalf("gate stats %+v: want 1 shed", st)
	}

	s.gate.release()
	resp, body = post(t, ts, "/v1/run", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status %d: %s", resp.StatusCode, body)
	}
	st := s.gate.stats()
	if st.Admitted != 2 || st.InUse != 0 {
		t.Fatalf("gate stats %+v: want 2 admitted, all slots returned", st)
	}

	// The shed shows up in /v1/status for operators.
	var sr StatusResponse
	hresp, err := ts.Client().Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if err := json.NewDecoder(hresp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Admission.Shed != 1 || sr.Admission.Capacity != 1 {
		t.Fatalf("status admission %+v", sr.Admission)
	}
}

// A request whose deadline expires while queued for a slot is shed (503 +
// Retry-After), not reported as a gateway timeout: it never started, so
// retrying later is the correct client move.
func TestQueuedDeadlineShedsNot504(t *testing.T) {
	s, ts := testServer(t, Config{AdmitCapacity: 1, AdmitQueue: 4})
	if err := s.gate.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.gate.release()
	q := Query{App: "sssp-graph", Model: "Insecure", Scale: 0.1, Seed: 2, TimeoutMs: 50}
	resp, body := post(t, ts, "/v1/run", q)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
}

// A herd against a saturated gate is shed cleanly, and the server's books
// agree with what the clients saw. With the only execution slot held,
// every herd request either waits in the queue (and gets 200 once the
// slot frees) or is shed with 503 + Retry-After, never another status;
// /v1/status counts exactly the sheds the clients received; a retrying
// Client caught in the storm completes once capacity returns; warm
// replays stay cache hits with no new captures; and no goroutines are
// left behind.
func TestGatedHerdShedsCleanly(t *testing.T) {
	s, ts := testServer(t, Config{AdmitCapacity: 1, AdmitQueue: 2, RetryAfter: 20 * time.Millisecond})
	q := Query{App: "sssp-graph", Model: "IRONHIDE", Scale: 0.1, Seed: 42}
	if resp, body := post(t, ts, "/v1/run", q); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", resp.StatusCode, body)
	}
	captures := s.liveCaptures.Load()
	ts.Client().CloseIdleConnections()
	baseGoroutines := runtime.NumGoroutine()

	if err := s.gate.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(q)
	const herd = 8
	statuses := make([]int, herd)
	headers := make([]http.Header, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i], headers[i] = resp.StatusCode, resp.Header
		}(i)
	}
	// The client counts its own sheds: it sleeps once per retried 503.
	var clientSheds atomic.Int64
	rc := &Client{BaseURL: ts.URL, HTTP: ts.Client(), MaxRetries: 50,
		sleepFn: func(ctx context.Context, d time.Duration) error {
			clientSheds.Add(1)
			return sleep(ctx, d)
		}}
	rcErr := make(chan error, 1)
	go func() {
		_, err := rc.PostJSON(context.Background(), "/v1/run", q, nil)
		rcErr <- err
	}()

	// Release the slot once every requester is accounted for: the queue is
	// full and the rest have been shed at least once.
	deadline := time.Now().Add(10 * time.Second)
	for st := s.gate.stats(); st.Waiting < 2 || st.Shed < herd-1; st = s.gate.stats() {
		if time.Now().After(deadline) {
			t.Fatalf("herd never saturated the gate: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	s.gate.release()
	wg.Wait()
	if err := <-rcErr; err != nil {
		t.Fatalf("retrying client under shedding: %v", err)
	}

	ok, shed := 0, 0
	for i, status := range statuses {
		switch {
		case status == http.StatusOK:
			ok++
			if src := headers[i].Get("X-Ironhide-Cache"); src != srcHit {
				t.Fatalf("herd request %d: warm replay served from %q, want hit", i, src)
			}
		case status == http.StatusServiceUnavailable && headers[i].Get("Retry-After") != "":
			shed++
		default:
			t.Fatalf("herd request %d: status %d (Retry-After %q), want 200 or 503 with Retry-After",
				i, status, headers[i].Get("Retry-After"))
		}
	}
	if ok == 0 || shed+int(clientSheds.Load()) < herd-1 {
		t.Fatalf("herd of %d: %d ok, %d shed, client shed %d times", herd, ok, shed, clientSheds.Load())
	}

	// Repeated warm runs are all cache hits.
	for i := 0; i < 4; i++ {
		resp, b := post(t, ts, "/v1/run", q)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Ironhide-Cache") != srcHit {
			t.Fatalf("warm run %d: status %d, source %q: %s", i, resp.StatusCode, resp.Header.Get("X-Ironhide-Cache"), b)
		}
	}
	var sr StatusResponse
	if _, err := (&Client{BaseURL: ts.URL, HTTP: ts.Client()}).GetJSON(context.Background(), "/v1/status", &sr); err != nil {
		t.Fatal(err)
	}
	if want := int64(shed) + clientSheds.Load(); sr.Admission.Shed != want {
		t.Fatalf("status counts %d sheds, clients saw %d", sr.Admission.Shed, want)
	}
	if sr.LiveCaptures != captures {
		t.Fatalf("live captures %d → %d: warm replays must not re-capture", captures, sr.LiveCaptures)
	}

	// Shed, queued and replayed alike, the goroutine count settles back
	// once idle connections close.
	ts.Client().CloseIdleConnections()
	deadline = time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines+4 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d now vs %d before the herd", runtime.NumGoroutine(), baseGoroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Full crash/restart cycle over the persistent store: a captured trace
// survives the crash, pre-warms the restarted server's cache, and the
// response bytes are identical across the restart — with zero
// re-captures. A corrupted store file is quarantined and transparently
// re-captured, never served.
func TestStoreWarmRestartServesWithoutRecapture(t *testing.T) {
	fs := store.NewMemFS()
	st1, _, err := store.Open("db", fs)
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := testServer(t, Config{Store: st1})
	q := Query{App: "aes-query", Model: "IRONHIDE", Scale: 0.1, Seed: 3}
	resp, body1 := post(t, ts1, "/v1/run", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body1)
	}
	if got := resp.Header.Get("X-Ironhide-Cache"); got != srcCapture {
		t.Fatalf("first request source %q, want capture", got)
	}
	if st1.Len() != 1 {
		t.Fatalf("store holds %d entries after capture, want 1 (write-through)", st1.Len())
	}

	// Crash the machine, restart the daemon.
	fs.Crash()
	st2, rep, err := store.Open("db", fs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != 1 || rep.Quarantined != 0 {
		t.Fatalf("post-crash scan %+v, want the entry recovered intact", rep)
	}
	s2, ts2 := testServer(t, Config{Store: st2})
	if s2.persist.prewarmed != 1 {
		t.Fatalf("prewarmed %d entries, want 1", s2.persist.prewarmed)
	}
	resp, body2 := post(t, ts2, "/v1/run", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart status %d: %s", resp.StatusCode, body2)
	}
	if got := resp.Header.Get("X-Ironhide-Cache"); got != srcHit {
		t.Fatalf("post-restart source %q, want hit (pre-warmed)", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("response diverged across restart:\n%s\nvs\n%s", body1, body2)
	}
	if st := s2.Cache().Stats(); st.Captures != 0 {
		t.Fatalf("cache stats %+v: warm restart must not re-capture", st)
	}

	// Corrupt the stored entry and crash again: the restart quarantines it
	// and the server transparently re-captures — it never serves rot.
	fs.Crash()
	names, err := fs.ReadDir("db")
	if err != nil || len(names) != 1 {
		t.Fatalf("store dir: %v %v", names, err)
	}
	if err := fs.Corrupt("db/"+names[0], 20); err != nil {
		t.Fatal(err)
	}
	st3, rep3, err := store.Open("db", fs)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Recovered != 0 || rep3.Quarantined != 1 {
		t.Fatalf("post-corruption scan %+v, want the entry quarantined", rep3)
	}
	s3, ts3 := testServer(t, Config{Store: st3})
	if s3.persist.prewarmed != 0 {
		t.Fatalf("prewarmed %d from a quarantined store, want 0", s3.persist.prewarmed)
	}
	resp, body3 := post(t, ts3, "/v1/run", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-corruption status %d: %s", resp.StatusCode, body3)
	}
	if got := resp.Header.Get("X-Ironhide-Cache"); got != srcCapture {
		t.Fatalf("post-corruption source %q, want a fresh capture", got)
	}
	if !bytes.Equal(body1, body3) {
		t.Fatalf("re-captured response diverged from the original:\n%s\nvs\n%s", body1, body3)
	}
}

// Read-through: an entry in the store but not in the LRU (evicted, or a
// small cache after restart) is served from disk — header "store" — and
// lands back in the LRU.
func TestStoreReadThrough(t *testing.T) {
	fs := store.NewMemFS()
	st1, _, err := store.Open("db", fs)
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := testServer(t, Config{Store: st1})
	var bodies [2][]byte
	for i, seed := range []int64{3, 4} {
		q := Query{App: "aes-query", Model: "IRONHIDE", Scale: 0.1, Seed: seed}
		resp, b := post(t, ts1, "/v1/run", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, b)
		}
		bodies[i] = b
	}
	if st1.Len() != 2 {
		t.Fatalf("store holds %d entries, want 2", st1.Len())
	}

	// Restart with a 1-entry cache: only the alphabetically-first key is
	// pre-warmed; the other must come back via read-through.
	fs.Crash()
	st2, _, err := store.Open("db", fs)
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := testServer(t, Config{Store: st2, CacheTraces: 1})
	if s2.persist.prewarmed != 1 {
		t.Fatalf("prewarmed %d entries into a 1-slot cache, want 1", s2.persist.prewarmed)
	}
	q := Query{App: "aes-query", Model: "IRONHIDE", Scale: 0.1, Seed: 4}
	resp, b := post(t, ts2, "/v1/run", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Ironhide-Cache"); got != srcStore {
		t.Fatalf("source %q, want store (read-through)", got)
	}
	if !bytes.Equal(b, bodies[1]) {
		t.Fatalf("read-through response diverged:\n%s\nvs\n%s", b, bodies[1])
	}
	if st := s2.Cache().Stats(); st.Captures != 1 {
		// The cache-level "capture" ran, but it was answered by the store:
		t.Fatalf("cache stats %+v: want 1 cache fill", st)
	}
	// Same key again: now in the LRU.
	resp, _ = post(t, ts2, "/v1/run", q)
	if got := resp.Header.Get("X-Ironhide-Cache"); got != srcHit {
		t.Fatalf("second read source %q, want hit", got)
	}
}

// A timeout_ms too large for a time.Duration is a far deadline, not one
// that overflows into a near one.
func TestHugeTimeoutDoesNotExpire(t *testing.T) {
	s := New(Config{Arch: arch.TileGx72()})
	// 18446744073710 ms is 2^64 ns plus 448 µs: unclamped, it wraps to a
	// deadline 448 µs away.
	for _, ms := range []int64{18446744073710, math.MaxInt64} {
		ctx, cancel := s.requestContext(httptest.NewRequest(http.MethodPost, "/v1/run", nil), ms)
		deadline, ok := ctx.Deadline()
		cancel()
		if ok && time.Until(deadline) < 24*time.Hour {
			t.Fatalf("timeout_ms %d gave a deadline %v away", ms, time.Until(deadline))
		}
	}
}

// Request bodies beyond the cap are rejected with 413 before any decode
// or simulation work.
func TestOversizeBodyRejected(t *testing.T) {
	s, ts := testServer(t, Config{})
	big := fmt.Sprintf(`{"app":%q,"model":"IRONHIDE"}`, strings.Repeat("x", maxRequestBody))
	resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if st := s.Cache().Stats(); st.Captures != 0 {
		t.Fatalf("cache stats %+v: oversized body must not reach the simulator", st)
	}
}

// Liveness vs readiness: healthz stays 200 through a drain, readyz flips
// to 503 so load balancers route away first.
func TestHealthAndReadiness(t *testing.T) {
	s, ts := testServer(t, Config{})
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := get("/v1/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if resp := get("/v1/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d", resp.StatusCode)
	}

	s.SetReady(false) // drain begins
	if resp := get("/v1/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: %d, liveness must hold", resp.StatusCode)
	}
	resp := get("/v1/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining readyz missing Retry-After")
	}
	var sr StatusResponse
	hresp, err := ts.Client().Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if err := json.NewDecoder(hresp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Ready {
		t.Fatal("status still reports ready during drain")
	}

	s.SetReady(true)
	if resp := get("/v1/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after undrain: %d", resp.StatusCode)
	}
}
