package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"ironhide/internal/scenario"
)

// Client is a retrying HTTP client for an ironhide-serve instance. Shed
// responses (503) are retried after the server's Retry-After hint, and
// transport-level errors (connection refused during a restart, reset
// connections) are retried with exponential backoff — so a caller rides
// through both overload and a daemon restart without hand-rolled loops.
// Non-retryable statuses (4xx, 500, 504) surface immediately.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the underlying client (default http.DefaultClient).
	HTTP *http.Client
	// MaxRetries bounds retry attempts after the first try (default 3).
	MaxRetries int
	// Backoff is the initial transport-error backoff, doubled per attempt
	// (default 50ms). Retry-After overrides it for shed responses.
	Backoff time.Duration
	// MaxRetryDelay caps any single retry sleep — the Retry-After hint
	// included, which is server-controlled input and must not be able to
	// park the client for an arbitrary time (default 30s; <0 disables the
	// cap). Sleeps are additionally clamped to the context's remaining
	// deadline: sleeping past it would burn the whole budget to return
	// context.DeadlineExceeded late.
	MaxRetryDelay time.Duration

	// now and sleepFn are test seams (nil = real clock).
	now     func() time.Time
	sleepFn func(context.Context, time.Duration) error
}

// StatusError is a non-2xx response that was not retried away.
type StatusError struct {
	Status int
	Body   string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("http %d: %s", e.Status, e.Body)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return 3
}

func (c *Client) backoff() time.Duration {
	if c.Backoff > 0 {
		return c.Backoff
	}
	return 50 * time.Millisecond
}

func (c *Client) maxRetryDelay() time.Duration {
	switch {
	case c.MaxRetryDelay > 0:
		return c.MaxRetryDelay
	case c.MaxRetryDelay < 0:
		return 0 // cap disabled
	default:
		return 30 * time.Second
	}
}

// doubled returns base doubled n times, saturating at limit (<= 0: no
// limit) and before the next doubling would overflow, so the delay never
// decreases as n grows.
func doubled(base time.Duration, n int, limit time.Duration) time.Duration {
	if limit <= 0 {
		limit = math.MaxInt64
	}
	d := base
	for ; n > 0 && d < limit && d <= math.MaxInt64/2; n-- {
		d *= 2
	}
	return min(d, limit)
}

func (c *Client) clock() time.Time {
	if c.now != nil {
		return c.now()
	}
	return time.Now()
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.sleepFn != nil {
		return c.sleepFn(ctx, d)
	}
	return sleep(ctx, d)
}

// retryDelay picks the wait before attempt n (0-based) given the last
// response, honoring Retry-After on shed responses. The server emits
// jittered fractional seconds (e.g. "0.743") so a shed herd doesn't
// retry in lockstep; integer values from other servers parse the same
// way. The hint is server-controlled input, so it is clamped to
// MaxRetryDelay and never past the context's remaining deadline —
// a misbehaving "Retry-After: 86400" must not park the caller for a day.
func (c *Client) retryDelay(ctx context.Context, n int, resp *http.Response) time.Duration {
	d := doubled(c.backoff(), n, c.maxRetryDelay())
	if resp != nil {
		if secs, err := strconv.ParseFloat(resp.Header.Get("Retry-After"), 64); err == nil && secs >= 0 {
			d = time.Duration(secs * float64(time.Second))
		}
	}
	if cap := c.maxRetryDelay(); cap > 0 && d > cap {
		d = cap
	}
	if deadline, ok := ctx.Deadline(); ok {
		if remain := deadline.Sub(c.clock()); remain < d {
			d = remain
		}
	}
	if d < 0 {
		d = 0
	}
	return d
}

// PostJSON posts req as JSON to path and decodes the 2xx body into resp
// (which may be nil to discard it). The returned header is the final
// response's.
func (c *Client) PostJSON(ctx context.Context, path string, req, resp any) (http.Header, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("marshal request: %w", err)
	}
	return c.roundTrip(ctx, http.MethodPost, path, body, "", decodeJSON(resp))
}

// GetJSON fetches path and decodes the 2xx body into resp.
func (c *Client) GetJSON(ctx context.Context, path string, resp any) (http.Header, error) {
	return c.roundTrip(ctx, http.MethodGet, path, nil, "", decodeJSON(resp))
}

// decodeJSON is the body consumer of PostJSON and GetJSON: it decodes the
// body into out, or drains it when out is nil.
func decodeJSON(out any) func(io.Reader) error {
	return func(body io.Reader) error {
		if out == nil {
			_, _ = io.Copy(io.Discard, body)
			return nil
		}
		if err := json.NewDecoder(body).Decode(out); err != nil {
			return fmt.Errorf("decode response: %w", err)
		}
		return nil
	}
}

// roundTrip is the client's one retry loop. It sends the request (body is
// JSON when non-nil; accept, when set, is the Accept header), retrying
// shed responses and transport errors, and hands the first 2xx body to
// consume, whose error it returns. A failure while consuming is never
// retried: the response had already begun.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte, accept string, consume func(io.Reader) error) (http.Header, error) {
	for attempt := 0; ; attempt++ {
		hr, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if body != nil {
			hr.Header.Set("Content-Type", "application/json")
		}
		if accept != "" {
			hr.Header.Set("Accept", accept)
		}
		hres, err := c.httpClient().Do(hr)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if attempt >= c.maxRetries() {
				return nil, err
			}
			if err := c.sleep(ctx, c.retryDelay(ctx, attempt, nil)); err != nil {
				return nil, err
			}
			continue
		}
		if hres.StatusCode/100 == 2 {
			defer hres.Body.Close()
			return hres.Header, consume(hres.Body)
		}
		b, _ := io.ReadAll(io.LimitReader(hres.Body, 4096))
		hres.Body.Close()
		serr := &StatusError{Status: hres.StatusCode, Body: string(bytes.TrimSpace(b))}
		if hres.StatusCode != http.StatusServiceUnavailable || attempt >= c.maxRetries() {
			return hres.Header, serr
		}
		if err := c.sleep(ctx, c.retryDelay(ctx, attempt, hres)); err != nil {
			return hres.Header, err
		}
	}
}

func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ScenarioStream posts a streamed /v1/scenario request (stream is forced
// on) and consumes the NDJSON response: onEvent, if non-nil, fires per
// engine phase event in emission order, and the returned outcome carries
// the terminal Report plus its blocking-body rendering — byte-identical
// to the same request without streaming.
//
// Retries follow the blocking client's rules only until the stream's
// first byte: shed responses (503) and transport errors are retried with
// the usual clamped backoff. Once a 2xx status arrives, failures are
// terminal — a mid-stream death surfaces as *StreamError (typed error
// chunk) or ErrStreamTruncated (connection cut), never as a silently
// short body.
func (c *Client) ScenarioStream(ctx context.Context, req ScenarioRequest, onEvent func(scenario.StreamEvent)) (*StreamOutcome, error) {
	body, err := streamBody(req)
	if err != nil {
		return nil, err
	}
	var out *StreamOutcome
	_, err = c.roundTrip(ctx, http.MethodPost, "/v1/scenario", body, ContentTypeNDJSON, func(r io.Reader) error {
		var err error
		out, err = consumeScenarioStream(r, onEvent)
		return err
	})
	return out, err
}

// streamBody marshals a scenario request with streaming forced on.
func streamBody(req ScenarioRequest) ([]byte, error) {
	req.Stream = true
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("marshal request: %w", err)
	}
	return body, nil
}

// WaitReady polls /v1/readyz until the server answers 200, the timeout
// lapses, or ctx expires. It is how the chaos harness knows a restarted
// daemon is back.
func (c *Client) WaitReady(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		one := &Client{BaseURL: c.BaseURL, HTTP: c.httpClient(), MaxRetries: 1, Backoff: c.backoff()}
		if _, err := one.GetJSON(ctx, "/v1/readyz", nil); err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready after %v", c.BaseURL, timeout)
		}
		if err := sleep(ctx, 25*time.Millisecond); err != nil {
			return err
		}
	}
}
