package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ironhide/internal/arch"
	"ironhide/internal/driver"
	"ironhide/internal/scenario"
	"ironhide/internal/service"
)

// Fleet selftest sizes: the daemons it spawns, and the client workers
// per routed load phase.
const (
	fleetShards = 3
	fleetConc   = 4
)

// fleetRingSeed is the placement seed the self-test fleet agrees on. Any
// seed works for correctness; this one is fixed so the run — including
// the per-shard load distribution the balance gate measures — is
// reproducible.
const fleetRingSeed = 9

// runFleetSelftest is the sharded-fleet end-to-end act: it spawns
// fleetShards real ironhide-serve daemons as a coordinator-free fleet,
// proves every shard and the client-side router agree on ring ownership,
// routes a uniform key stream through the router and checks balance and
// byte-identity against an in-process single-node oracle, SIGKILLs one
// shard mid-capture and shows the stream rides over to replicas with
// zero errors and bounded latency, then wipes the dead shard's store,
// restarts it, and proves it re-warms via peer fetch — the restarted
// shard serves its keys without executing a single capture. Returns the
// process exit code.
func runFleetSelftest(scale float64, dilation int64) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "fleet-selftest: FAIL: "+format+"\n", args...)
		return 1
	}
	baseGoroutines := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	// Spawn the fleet: every shard gets its own store and the same
	// membership + ring seed.
	shards := make([]*daemon, fleetShards)
	members := make([]string, fleetShards)
	for i := range shards {
		d, err := newDaemon()
		if err != nil {
			return fail("%v", err)
		}
		defer d.close()
		shards[i], members[i] = d, d.url
	}
	start := func(d *daemon) error {
		return d.start(ctx, dilation,
			"-fleet-peers", strings.Join(members, ","),
			"-fleet-self", d.url,
			"-fleet-seed", strconv.FormatInt(fleetRingSeed, 10),
		)
	}
	for _, d := range shards {
		if err := start(d); err != nil {
			return fail("%v", err)
		}
	}
	fmt.Printf("ironhide-serve fleet-selftest: %d shards, %s at scale %g, ring seed %d\n",
		fleetShards, selftestApp, scale, fleetRingSeed)

	rt, err := service.NewRouter(service.RouterConfig{
		Members: members, Seed: fleetRingSeed, Backoff: 50 * time.Millisecond,
	})
	if err != nil {
		return fail("%v", err)
	}

	// The key stream: uniform (app, scale, seed) queries, 8 per shard.
	query := func(seed int64) service.Query {
		return service.Query{App: selftestApp, Model: "IRONHIDE", Scale: scale, Seed: seed}
	}
	keys := 8 * fleetShards
	targets := make([]service.RoutedTarget, keys)
	routeKeys := make([]string, keys)
	for i := range targets {
		targets[i] = service.RoutedTarget{Path: "/v1/run", Query: query(int64(i))}
		routeKeys[i], err = service.RouteKey(targets[i].Query)
		if err != nil {
			return fail("%v", err)
		}
	}

	// Gate 1 — ring determinism: every shard's ring answers ownership for
	// every key exactly as the client-side router computes it. This is the
	// coordination-free contract; nothing below works without it.
	for _, s := range members {
		cl := &service.Client{BaseURL: s}
		for _, k := range routeKeys {
			var ring service.RingResponse
			if _, err := cl.GetJSON(ctx, "/v1/ring?key="+url.QueryEscape(k), &ring); err != nil {
				return fail("shard %s ring: %v", s, err)
			}
			if fmt.Sprint(ring.Owners) != fmt.Sprint(rt.Owners(k)) {
				return fail("ring disagreement on %q: shard %s says %v, router says %v", k, s, ring.Owners, rt.Owners(k))
			}
		}
	}
	fmt.Printf("  ✓ ring determinism: %d shards and the router agree on ownership of all %d keys\n", fleetShards, keys)

	// The single-node oracle: the batch driver's answer for every query,
	// rendered exactly as the service renders it. Every routed response in
	// every phase must match it byte for byte — "zero wrong bytes".
	oracleCfg := service.Config{Arch: arch.TileGx72Scaled(dilation)}
	oracle := make([][]byte, keys)
	for i := range oracle {
		if oracle[i], err = batchResultJSON(oracleCfg, targets[i].Query); err != nil {
			return fail("oracle seed %d: %v", i, err)
		}
		// Routed bodies arrive as the raw JSON value (the body's trailing
		// newline is framing, not value); trim the oracle to match so the
		// comparison stays byte-exact on the value itself.
		oracle[i] = bytes.TrimSuffix(oracle[i], []byte("\n"))
	}
	checkBodies := func(phase string, bodies [][]byte) error {
		for i, b := range bodies {
			if b == nil {
				continue // errored request; the phase gate already counted it
			}
			if !bytes.Equal(b, oracle[i]) {
				return fmt.Errorf("%s: seed %d diverged from the single-node oracle:\nfleet:  %s\noracle: %s", phase, i, b, oracle[i])
			}
		}
		return nil
	}

	// Gate 2 — warm phase: the full key stream through the router on a
	// healthy fleet. Zero errors, zero failovers, balanced routing (no
	// shard above 2x the mean — the keys are uniform), every body equal to
	// the oracle.
	warm, warmBodies := service.HammerRouter("warm", rt, targets, fleetConc)
	fmt.Println(" ", warm)
	fmt.Println("   ", warm.ShardLine())
	if warm.Errors > 0 {
		return fail("warm phase: %d errors (first: %s)", warm.Errors, warm.FirstError)
	}
	if warm.Failovers > 0 {
		return fail("warm phase: %d failovers on a healthy fleet", warm.Failovers)
	}
	if len(warm.PerShard) != fleetShards {
		return fail("warm phase: only %d/%d shards answered", len(warm.PerShard), fleetShards)
	}
	if skew := warm.MaxShardSkew(); skew > 2 {
		return fail("warm phase: shard skew %.2f exceeds 2x mean — routing is unbalanced: %s", skew, warm.ShardLine())
	}
	if err := checkBodies("warm", warmBodies); err != nil {
		return fail("%v", err)
	}
	fmt.Printf("  ✓ warm: balanced (max skew %.2fx), all %d bodies byte-identical to the oracle\n", warm.MaxShardSkew(), keys)

	// Gate 3 — kill a shard mid-capture. The victim owns seed 0's key (so
	// the re-warm probe below has a definite owner), and it is killed while
	// fresh captures are executing on it — the harshest moment.
	victimURL := rt.Owners(routeKeys[0])[0]
	var victim *daemon
	for _, s := range shards {
		if s.url == victimURL {
			victim = s
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		seed := int64(500 + i)
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qctx, qcancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer qcancel()
			one := &service.Client{BaseURL: victimURL, MaxRetries: 1, Backoff: 20 * time.Millisecond}
			_, _ = one.PostJSON(qctx, "/v1/run", query(seed), nil) // failure expected: we kill the shard under it
		}(seed)
	}
	time.Sleep(300 * time.Millisecond)
	if err := victim.kill(); err != nil {
		return fail("SIGKILL %s: %v", victimURL, err)
	}
	wg.Wait()
	fmt.Printf("  ✓ SIGKILLed shard %s with captures in flight\n", victimURL)

	// Gate 4 — failover phase: the same stream again, one shard dark. The
	// router must ride every victim-owned key over to a replica: zero
	// errors, failovers observed, p99 bounded, and still zero wrong bytes.
	// Replicas write the traces they serve through to their own stores —
	// that durability is what the re-warm probe below draws on.
	failover, failBodies := service.HammerRouter("failover", rt, targets, fleetConc)
	fmt.Println(" ", failover)
	fmt.Println("   ", failover.ShardLine())
	if failover.Errors > 0 {
		return fail("failover phase: %d errors (first: %s) — a dead shard must cost failovers, not failures", failover.Errors, failover.FirstError)
	}
	if failover.Failovers == 0 {
		return fail("failover phase: the victim owned keys but no failovers were recorded")
	}
	if _, hit := failover.PerShard[victimURL]; hit {
		return fail("failover phase: the dead shard answered requests")
	}
	if failover.P99 > 15*time.Second {
		return fail("failover phase: p99 %s — failover latency must stay bounded", failover.P99)
	}
	if err := checkBodies("failover", failBodies); err != nil {
		return fail("%v", err)
	}
	fmt.Printf("  ✓ failover: %d failovers, 0 errors, p99 %s, all bodies byte-identical to the oracle\n",
		failover.Failovers, failover.P99.Round(time.Millisecond))

	// Gate 5 — re-warm via peer fetch: wipe the victim's store (a restart
	// with its own disk would prove nothing), restart it, and route its
	// keys back to it. The restarted shard must answer from peer-fetched
	// traces — its live-capture counter must not move.
	if err := os.RemoveAll(victim.store); err != nil {
		return fail("wipe victim store: %v", err)
	}
	if err := os.MkdirAll(victim.store, 0o755); err != nil {
		return fail("recreate victim store: %v", err)
	}
	if err := start(victim); err != nil {
		return fail("restart: %v", err)
	}
	// The victim's breaker opened while it was dark; force-close it so the
	// probe routes to the restarted owner now instead of after a cooldown.
	rt.ResetBreakers()

	peerServed, rewarmed := 0, 0
	for i, k := range routeKeys {
		if rt.Owners(k)[0] != victimURL {
			continue
		}
		rewarmed++
		var body json.RawMessage
		res, err := rt.Query(ctx, "/v1/run", targets[i].Query, &body)
		if err != nil {
			return fail("re-warm seed %d: %v", i, err)
		}
		if res.Shard != victimURL {
			return fail("re-warm seed %d answered by %s, want the restarted owner %s", i, res.Shard, victimURL)
		}
		if !bytes.Equal(body, oracle[i]) {
			return fail("re-warm seed %d diverged from the oracle", i)
		}
		if src := res.Header.Get("X-Ironhide-Cache"); src == "peer" {
			peerServed++
		}
	}
	if rewarmed == 0 {
		return fail("victim owned no keys of the stream — cannot prove re-warm")
	}
	if peerServed == 0 {
		return fail("restarted shard served %d of its keys but none via peer fetch", rewarmed)
	}
	var vStatus service.StatusResponse
	if _, err := (&service.Client{BaseURL: victimURL}).GetJSON(ctx, "/v1/status", &vStatus); err != nil {
		return fail("victim status: %v", err)
	}
	if vStatus.LiveCaptures != 0 {
		return fail("restarted shard executed %d live captures — re-warm must come from peers, not re-execution", vStatus.LiveCaptures)
	}
	if vStatus.Fleet == nil || vStatus.Fleet.PeerServed < int64(peerServed) {
		return fail("victim fleet stats do not reflect peer fetches: %+v", vStatus.Fleet)
	}
	fmt.Printf("  ✓ re-warm: restarted shard served %d/%d of its keys via peer fetch, 0 live captures\n", peerServed, rewarmed)

	// Gate 6 — batched endpoints through the router on the healed fleet:
	// one grid across the model axis, twice (the repeat must be
	// byte-identical), and one multi-tenant scenario.
	grid := service.GridRequest{}
	for _, model := range []string{"Insecure", "SGX", "MI6", "IRONHIDE"} {
		grid.Cells = append(grid.Cells, service.Query{App: selftestApp, Model: model, Scale: scale, Seed: 1})
	}
	var g1, g2 json.RawMessage
	if _, err := rt.Grid(ctx, grid, &g1); err != nil {
		return fail("grid: %v", err)
	}
	if _, err := rt.Grid(ctx, grid, &g2); err != nil {
		return fail("grid repeat: %v", err)
	}
	if !bytes.Equal(g1, g2) {
		return fail("routed grid is non-deterministic across repeats")
	}
	sreq := service.ScenarioRequest{Spec: scenario.Spec{
		Seed: 7, Scale: scale, Apps: []string{selftestApp, "sssp-graph"},
		Timeline: []scenario.Event{
			{Kind: scenario.Arrive, App: selftestApp},
			{Kind: scenario.Arrive, App: "sssp-graph"},
			{Kind: scenario.Depart, App: selftestApp},
		},
	}}
	var sresp json.RawMessage
	if _, err := rt.Scenario(ctx, sreq, &sresp); err != nil {
		return fail("scenario: %v", err)
	}
	fmt.Println("  ✓ grid and scenario route whole to one shard, deterministically")

	// Gate 7 — drain the fleet: SIGTERM every shard, all must exit 0.
	for _, s := range shards {
		if err := s.drain(); err != nil {
			return fail("%v", err)
		}
	}
	fmt.Println("  ✓ SIGTERM drained every shard to a clean exit")

	// Gate 8 — leak gate: the router and its per-shard clients must not
	// leave goroutines behind.
	http.DefaultClient.CloseIdleConnections()
	rtDone := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines+16 {
		if time.Now().After(rtDone) {
			return fail("goroutine leak: %d at exit vs %d at start", runtime.NumGoroutine(), baseGoroutines)
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Println("  ✓ no goroutine leak")
	fmt.Println("fleet-selftest: PASS")
	return 0
}

// batchResultJSON runs the query through the batch driver path and
// renders the Result exactly as the service does, so the two can be
// diffed byte-for-byte.
func batchResultJSON(cfg service.Config, q service.Query) ([]byte, error) {
	entry, mf, err := service.Resolve(q.App, q.Model)
	if err != nil {
		return nil, err
	}
	res, err := driver.Run(cfg.Arch, mf(), entry.Factory, q.Options())
	if err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
