package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"time"

	"ironhide/internal/apps"
	"ironhide/internal/fleet"
	"ironhide/internal/scenario"
)

// Router is the client-side front end of a sharded ironhide-serve fleet.
// It builds the same consistent-hash ring as every shard (same members,
// seed, vnodes — no coordination traffic) and forwards each request to
// the key's owner, failing over to the key's replicas on connection
// error, load-shed past the per-shard retry budget, or a draining shard —
// with jittered exponential backoff between passes and a per-shard
// circuit breaker so a dead shard costs one connection attempt per
// cooldown, not one per request. Safe for concurrent use.
type Router struct {
	ring     *fleet.Ring
	replicas int
	clients  map[string]*Client
	breakers map[string]*fleet.Breaker
	cfg      RouterConfig
}

// RouterConfig tunes a Router.
type RouterConfig struct {
	// Members lists every shard's base URL. Must match the fleet's
	// membership (same set; order is irrelevant).
	Members []string
	// Seed, VNodes and Replicas must match the fleet's ring parameters.
	Seed     int64
	VNodes   int
	Replicas int
	// HTTP is the underlying client (default http.DefaultClient).
	HTTP *http.Client
	// MaxPasses bounds full passes over a key's replica set before the
	// router gives up (default 3).
	MaxPasses int
	// Backoff is the initial inter-pass backoff, doubled per pass and
	// jittered ±50% (default 50ms).
	Backoff time.Duration
	// PerTryRetries is each per-shard Client's retry budget: how many
	// times one shard may shed (503 + Retry-After) before the router
	// fails the request over to the next replica (default 1).
	PerTryRetries int
	// BreakerThreshold and BreakerCooldown tune the per-shard circuit
	// breakers (defaults: 3 consecutive failures, 1s cooldown).
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

func (rc RouterConfig) replicas() int {
	if rc.Replicas > 0 {
		return rc.Replicas
	}
	return fleet.DefaultReplicas
}

func (rc RouterConfig) maxPasses() int {
	if rc.MaxPasses > 0 {
		return rc.MaxPasses
	}
	return 3
}

func (rc RouterConfig) backoff() time.Duration {
	if rc.Backoff > 0 {
		return rc.Backoff
	}
	return 50 * time.Millisecond
}

func (rc RouterConfig) perTryRetries() int {
	if rc.PerTryRetries > 0 {
		return rc.PerTryRetries
	}
	return 1
}

// NewRouter builds a router over the fleet membership. An empty member
// set returns an error — a router with nowhere to route is a
// configuration mistake, not a degenerate mode.
func NewRouter(cfg RouterConfig) (*Router, error) {
	ring := fleet.NewRing(cfg.Members, cfg.Seed, cfg.VNodes)
	if ring == nil {
		return nil, errors.New("router: no fleet members")
	}
	rt := &Router{
		ring:     ring,
		replicas: cfg.replicas(),
		clients:  make(map[string]*Client, ring.Len()),
		breakers: make(map[string]*fleet.Breaker, ring.Len()),
		cfg:      cfg,
	}
	for _, m := range ring.Members() {
		rt.clients[m] = &Client{
			BaseURL:    m,
			HTTP:       cfg.HTTP,
			MaxRetries: cfg.perTryRetries(),
			Backoff:    cfg.backoff(),
		}
		rt.breakers[m] = &fleet.Breaker{Threshold: cfg.BreakerThreshold, Cooldown: cfg.BreakerCooldown}
	}
	return rt, nil
}

// Owners returns the replica set the router would try for a routing key,
// owner first.
func (rt *Router) Owners(key string) []string {
	return rt.ring.Owners(key, rt.replicas)
}

// RouteKey derives the consistent-hash routing key for a query: the same
// (app, scale, seed) trace identity the shards key their caches and
// stores by, so a query lands on the shard that owns — or will own — its
// trace.
func RouteKey(q Query) (string, error) {
	entry, err := apps.Find(q.App)
	if err != nil {
		return "", err
	}
	return q.key(entry).String(), nil
}

// RoutedResult reports how a routed request was served.
type RoutedResult struct {
	// Shard is the member that answered.
	Shard string
	// Header is the answering shard's response header.
	Header http.Header
	// Failovers counts shard attempts abandoned before the answer.
	Failovers int
}

// retryableRouteError reports whether an error from one shard justifies
// trying another: transport failures (refused/reset connections — the
// shard is down or restarting) and load-shed or draining responses (503).
// Anything else — 4xx, 500, 504 — is deterministic for this request and
// would fail identically everywhere, so it surfaces immediately.
func retryableRouteError(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status == http.StatusServiceUnavailable
	}
	// Context expiry is the caller's deadline, not the shard's fault.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true // transport-level error
}

// delivered marks a body consumer's error after part of the body already
// reached the caller: failing the request over would replay what the
// caller consumed, so the router surfaces the error (err) instead.
type delivered struct{ err error }

func (d *delivered) Error() string { return d.err.Error() }

// PostJSON routes a POST to the owner of key, failing over across the
// key's replica set. key is the raw routing key (see RouteKey); req/resp
// are as in Client.PostJSON.
func (rt *Router) PostJSON(ctx context.Context, path, key string, req, resp any) (RoutedResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return RoutedResult{}, fmt.Errorf("marshal request: %w", err)
	}
	return rt.post(ctx, path, key, body, "", decodeJSON(resp))
}

// post is the router's one pass/breaker loop: it sends the request to the
// owner of key through that shard's retrying Client (see
// Client.roundTrip), failing over across the key's replica set. A consume
// error wrapped in *delivered is not failed over.
func (rt *Router) post(ctx context.Context, path, key string, body []byte, accept string, consume func(io.Reader) error) (RoutedResult, error) {
	owners := rt.Owners(key)
	res := RoutedResult{}
	var lastErr error
	for pass := 0; pass < rt.cfg.maxPasses(); pass++ {
		if pass > 0 {
			// Jittered exponential backoff between passes: the whole
			// replica set was unavailable, so wait out the blip without
			// synchronizing with every other router doing the same.
			d := doubled(rt.cfg.backoff(), pass-1, 0)
			d = time.Duration(float64(d) * (0.5 + rand.Float64()))
			if err := sleep(ctx, d); err != nil {
				return res, err
			}
		}
		for _, shard := range owners {
			br := rt.breakers[shard]
			if !br.Allow() {
				continue // breaker open: skip without burning an attempt
			}
			hdr, err := rt.clients[shard].roundTrip(ctx, http.MethodPost, path, body, accept, consume)
			if err == nil {
				br.Success()
				res.Shard, res.Header = shard, hdr
				return res, nil
			}
			var d *delivered
			if errors.As(err, &d) {
				// The shard died mid-body: it failed, but no other shard may
				// take over.
				br.Failure()
				res.Shard, res.Header = shard, hdr
				return res, d.err
			}
			if !retryableRouteError(err) {
				// Deterministic failure: report it from this shard, and
				// don't punish the breaker — the shard answered.
				res.Shard, res.Header = shard, hdr
				return res, err
			}
			br.Failure()
			res.Failovers++
			lastErr = err
			if ctx.Err() != nil {
				return res, ctx.Err()
			}
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("router: all %d replicas of %q unavailable (breakers open)", len(owners), key)
	}
	return res, fmt.Errorf("router: key %q failed on all replicas after %d passes: %w", key, rt.cfg.maxPasses(), lastErr)
}

// Query routes a /v1/search or /v1/run query by its trace key.
func (rt *Router) Query(ctx context.Context, path string, q Query, resp any) (RoutedResult, error) {
	key, err := RouteKey(q)
	if err != nil {
		return RoutedResult{}, err
	}
	return rt.PostJSON(ctx, path, key, q, resp)
}

// Grid routes a /v1/grid batch by its first cell's trace key: the batch
// rides to one shard, whose own grid fan-out shares captures across
// cells, and any cell the shard doesn't own is pulled from its peer over
// the trace endpoint rather than re-captured.
func (rt *Router) Grid(ctx context.Context, req GridRequest, resp any) (RoutedResult, error) {
	if len(req.Cells) == 0 {
		return RoutedResult{}, errors.New("router: empty grid")
	}
	key, err := RouteKey(req.Cells[0])
	if err != nil {
		return RoutedResult{}, err
	}
	return rt.PostJSON(ctx, "/v1/grid", key, req, resp)
}

// Scenario routes a /v1/scenario timeline by its first application at
// scale (scenario traces are seed-independent and cached under seed 0, so
// this is the key the serving shard will actually look up first).
func (rt *Router) Scenario(ctx context.Context, req ScenarioRequest, resp any) (RoutedResult, error) {
	key, err := scenarioRouteKey(req)
	if err != nil {
		return RoutedResult{}, err
	}
	return rt.PostJSON(ctx, "/v1/scenario", key, req, resp)
}

// scenarioRouteKey derives the routing key a scenario request shares with
// its blocking twin (see Router.Scenario).
func scenarioRouteKey(req ScenarioRequest) (string, error) {
	pool := req.Spec.Pool()
	if len(pool) == 0 {
		return "", errors.New("router: scenario with no applications")
	}
	return RouteKey(Query{App: pool[0], Scale: req.Spec.Scale})
}

// ScenarioStream routes a streamed /v1/scenario with first-byte failover
// semantics: until the stream's first chunk, a shard failure (transport
// error, shed, truncation-before-anything) fails over across the key's
// replica set exactly like a blocking request. Once any chunk was
// delivered, failover stops — replaying the run from another shard would
// duplicate events the caller already consumed — and a shard death
// surfaces as a typed *StreamError (terminal error chunk) or a wrapped
// ErrStreamTruncated, never a silently short body.
func (rt *Router) ScenarioStream(ctx context.Context, req ScenarioRequest, onEvent func(scenario.StreamEvent)) (*StreamOutcome, RoutedResult, error) {
	key, err := scenarioRouteKey(req)
	if err != nil {
		return nil, RoutedResult{}, err
	}
	body, err := streamBody(req)
	if err != nil {
		return nil, RoutedResult{}, err
	}
	var out *StreamOutcome
	res, err := rt.post(ctx, "/v1/scenario", key, body, ContentTypeNDJSON, func(r io.Reader) error {
		var err error
		if out, err = consumeScenarioStream(r, onEvent); err != nil && out.Events > 0 {
			return &delivered{err}
		}
		return err
	})
	// Tag a mid-stream death with the shard, so the caller knows who died.
	var se *StreamError
	if errors.As(err, &se) {
		se.Shard = res.Shard
	}
	return out, res, err
}
