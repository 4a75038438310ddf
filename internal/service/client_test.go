package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// Shed responses are retried (honoring Retry-After) until the server has
// room again.
func TestClientRetriesShed(t *testing.T) {
	var calls atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			writeError(w, http.StatusServiceUnavailable, ErrOverloaded)
			return
		}
		fmt.Fprintln(w, `{"ok":true}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, HTTP: ts.Client(), MaxRetries: 3, Backoff: time.Millisecond}
	var out map[string]bool
	if _, err := c.PostJSON(context.Background(), "/v1/run", Query{App: "a"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 sheds + 1 success)", got)
	}
	if !out["ok"] {
		t.Fatalf("decoded %v", out)
	}
}

// Hard failures (here 500) are not retried: they would not get better,
// and hammering a broken server makes outages worse.
func TestClientDoesNotRetryHardErrors(t *testing.T) {
	var calls atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusInternalServerError, errors.New("broken"))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, HTTP: ts.Client(), MaxRetries: 3, Backoff: time.Millisecond}
	_, err := c.PostJSON(context.Background(), "/v1/run", Query{App: "a"}, nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusInternalServerError {
		t.Fatalf("err = %v, want a 500 StatusError", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want exactly 1", got)
	}
}

// A bounded shed storm exhausts the retry budget and surfaces the 503.
func TestClientGivesUpAfterBudget(t *testing.T) {
	var calls atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "0")
		writeError(w, http.StatusServiceUnavailable, ErrOverloaded)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, HTTP: ts.Client(), MaxRetries: 2, Backoff: time.Millisecond}
	_, err := c.PostJSON(context.Background(), "/v1/run", Query{App: "a"}, nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want the final 503", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (1 try + 2 retries)", got)
	}
}

// WaitReady rides through refused connections and draining answers until
// the server reports ready — the restart-detection primitive of the
// chaos harness.
func TestClientWaitReady(t *testing.T) {
	var ready atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !ready.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, HTTP: ts.Client(), Backoff: time.Millisecond}
	if err := c.WaitReady(context.Background(), 200*time.Millisecond); err == nil {
		t.Fatal("WaitReady succeeded against a draining server")
	}
	ready.Store(true)
	if err := c.WaitReady(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// The Retry-After clamp bugfix: the hint is server-controlled input, so a
// hostile or buggy "Retry-After: 86400" must be clamped to MaxRetryDelay
// and never past the context's remaining deadline. Transport-error
// backoff (attempt n) doubles up to the same cap: an unchecked shift
// wrapped 50ms << 38 and << 40 to a negative duration that the clamp
// turned into a 0s sleep, so a long retry loop spun without waiting.
// Fake clock, no real sleeping.
func TestClientClampsRetryAfter(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	resp := func(retryAfter string) *http.Response {
		h := http.Header{}
		h.Set("Retry-After", retryAfter)
		return &http.Response{Header: h}
	}
	ctxWith := func(remain time.Duration) context.Context {
		ctx, cancel := context.WithDeadline(context.Background(), base.Add(remain))
		t.Cleanup(cancel)
		return ctx
	}

	cases := []struct {
		name   string
		client Client
		ctx    context.Context
		n      int
		resp   *http.Response
		want   time.Duration
	}{
		{"honors small hints verbatim",
			Client{}, context.Background(), 0, resp("0.250"), 250 * time.Millisecond},
		{"clamps a day-long hint to the default cap",
			Client{}, context.Background(), 0, resp("86400"), 30 * time.Second},
		{"clamps to a configured cap",
			Client{MaxRetryDelay: 2 * time.Second}, context.Background(), 0, resp("86400"), 2 * time.Second},
		{"cap disabled honors the hint",
			Client{MaxRetryDelay: -1}, context.Background(), 0, resp("86400"), 86400 * time.Second},
		{"clamps to the deadline's remainder",
			Client{}, ctxWith(400 * time.Millisecond), 0, resp("5"), 400 * time.Millisecond},
		{"expired deadline sleeps zero",
			Client{}, ctxWith(-time.Second), 0, resp("5"), 0},
		{"backoff also respects the deadline",
			Client{Backoff: 10 * time.Second}, ctxWith(100 * time.Millisecond), 0, nil, 100 * time.Millisecond},
		{"backoff doubles per attempt",
			Client{}, context.Background(), 3, nil, 400 * time.Millisecond},
		{"backoff stops at the cap",
			Client{MaxRetries: 64}, context.Background(), 10, nil, 30 * time.Second},
		{"backoff at attempt 38 stays at the cap",
			Client{MaxRetries: 64}, context.Background(), 38, nil, 30 * time.Second},
		{"backoff at attempt 40 stays at the cap",
			Client{MaxRetries: 64}, context.Background(), 40, nil, 30 * time.Second},
		{"backoff at attempt 63 stays at the cap",
			Client{MaxRetries: 64}, context.Background(), 63, nil, 30 * time.Second},
	}
	for _, tc := range cases {
		c := tc.client
		c.now = func() time.Time { return base }
		if got := c.retryDelay(tc.ctx, tc.n, tc.resp); got != tc.want {
			t.Fatalf("%s: retryDelay = %v, want %v", tc.name, got, tc.want)
		}
	}

	// Without a cap, and for the router's inter-pass backoff, the delay
	// never decreases as the attempt number grows.
	uncapped := Client{MaxRetries: 64, MaxRetryDelay: -1}
	var prevClient, prevRouter time.Duration
	for n := 0; n < 100; n++ {
		got := uncapped.retryDelay(context.Background(), n, nil)
		if got < prevClient || got <= 0 {
			t.Fatalf("uncapped retryDelay(n=%d) = %v after %v", n, got, prevClient)
		}
		prevClient = got
		d := doubled(50*time.Millisecond, n, 0)
		if d < prevRouter || d <= 0 {
			t.Fatalf("router backoff at pass %d = %v after %v", n+1, d, prevRouter)
		}
		prevRouter = d
	}
}

// End-to-end with a recording sleep seam: a shed loop against a server
// demanding hour-long waits completes promptly, every recorded sleep
// clamped to the configured cap.
func TestClientShedLoopClamped(t *testing.T) {
	var calls atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "3600")
			writeError(w, http.StatusServiceUnavailable, ErrOverloaded)
			return
		}
		fmt.Fprintln(w, `{"ok":true}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var slept []time.Duration
	c := &Client{BaseURL: ts.URL, HTTP: ts.Client(), MaxRetries: 3, MaxRetryDelay: 50 * time.Millisecond,
		sleepFn: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		}}
	if _, err := c.PostJSON(context.Background(), "/v1/run", Query{App: "a"}, nil); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 2 {
		t.Fatalf("recorded %d sleeps, want 2", len(slept))
	}
	for i, d := range slept {
		if d != 50*time.Millisecond {
			t.Fatalf("sleep %d was %v, want the 50ms cap", i, d)
		}
	}
}
