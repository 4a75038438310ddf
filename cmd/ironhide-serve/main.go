// Command ironhide-serve runs the simulation-as-a-service daemon: a
// long-lived HTTP front end that answers binding-search and experiment
// queries online, capturing each workload trace at most once and
// replaying it for every subsequent query (see internal/service for the
// API and the cache/coalescing design).
//
// Usage:
//
//	ironhide-serve [-addr :8372] [-dilation n] [-cache n]
//	               [-grid-workers n] [-timeout d] [-store dir]
//	               [-admit n] [-admit-queue n] [-retry-after d]
//	               [-capture-grace d]
//	ironhide-serve -fleet-peers url1,url2,... -fleet-self url1
//	               [-fleet-seed n] [-fleet-vnodes n] [-fleet-replicas n]
//
// Serving mode listens on -addr until SIGINT/SIGTERM, then flips
// /v1/readyz to 503, drains in-flight requests and exits. With -store,
// captured traces persist in a crash-safe checksummed store and pre-warm
// the cache on restart; with -admit, excess load is shed with 503 +
// Retry-After instead of queueing without bound.
//
// With -fleet-peers, the instance joins a coordinator-free sharded
// fleet: every shard is handed the same membership and ring seed, agrees
// on trace-key ownership via a seeded consistent-hash ring, and resolves
// local misses by fetching traces from the key's other replicas (GET
// /v1/trace/{key}, CRC-verified on receipt) before falling back to a
// live capture. -fleet-self must appear in -fleet-peers exactly as
// listed; otherwise the daemon refuses to start, since its ring would
// differ from every peer's.
//
// The in-process checks — byte-identity with the batch driver, shed
// semantics, streamed == blocking — are tests of internal/service; the
// multi-process crash story (SIGKILL mid-capture, failover, disk rot,
// restart and peer re-warm across three real shards) is this package's
// test; the warm and cold serving numbers come from the benchmark (bash
// benchmark/run.sh).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"ironhide/internal/arch"
	"ironhide/internal/service"
	"ironhide/internal/store"
)

func main() {
	addr := flag.String("addr", ":8372", "listen address")
	dilation := flag.Int64("dilation", 12, "protocol-constant dilation divisor (1 = full-fidelity per-event costs)")
	cacheTraces := flag.Int("cache", 16, "trace-cache capacity (distinct app/scale/seed captures held)")
	gridWorkers := flag.Int("grid-workers", runtime.NumCPU(), "worker pool bound for /v1/grid fan-outs and for each query's search_workers")
	timeout := flag.Duration("timeout", 60*time.Second, "default per-request deadline (requests may override via timeout_ms)")
	storeDir := flag.String("store", "", "persistent trace-store directory (empty = memory only)")
	admit := flag.Int("admit", 0, "max concurrently executing simulation requests (0 = no admission gate)")
	admitQueue := flag.Int("admit-queue", 8, "requests that may wait for an execution slot before load-shedding (with -admit)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint attached to shed (503) responses")
	captureGrace := flag.Duration("capture-grace", 0, "how long an abandoned capture may keep running (0 = run to completion and fill the cache)")

	fleetPeers := flag.String("fleet-peers", "", "comma-separated base URLs of every fleet shard, this one included (empty = not sharded)")
	fleetSelf := flag.String("fleet-self", "", "this shard's base URL exactly as listed in -fleet-peers")
	fleetSeed := flag.Int64("fleet-seed", 0, "consistent-hash ring placement seed (all shards and clients must agree)")
	fleetVNodes := flag.Int("fleet-vnodes", 0, "virtual nodes per shard on the ring (0 = default)")
	fleetReplicas := flag.Int("fleet-replicas", 0, "replica-set size per trace key: owner + backups (0 = default)")
	flag.Parse()

	cfg := service.Config{
		Arch:           arch.TileGx72Scaled(*dilation),
		CacheTraces:    *cacheTraces,
		GridWorkers:    *gridWorkers,
		DefaultTimeout: *timeout,
		AdmitCapacity:  *admit,
		AdmitQueue:     *admitQueue,
		RetryAfter:     *retryAfter,
		CaptureGrace:   *captureGrace,
	}

	if *fleetPeers != "" {
		members := strings.Split(*fleetPeers, ",")
		for i := range members {
			members[i] = strings.TrimSpace(members[i])
		}
		if *fleetSelf == "" || !slices.Contains(members, *fleetSelf) {
			fmt.Fprintf(os.Stderr, "ironhide-serve: -fleet-self %q is not one of -fleet-peers %q; list it exactly as there, or this shard's ring differs from its peers'\n",
				*fleetSelf, members)
			os.Exit(1)
		}
		cfg.Fleet = &service.FleetConfig{
			Self:     *fleetSelf,
			Members:  members,
			Seed:     *fleetSeed,
			VNodes:   *fleetVNodes,
			Replicas: *fleetReplicas,
		}
	}

	if *storeDir != "" {
		st, rep, err := store.Open(*storeDir, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ironhide-serve: store:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ironhide-serve: store %s: %d recovered, %d quarantined (%d prior), %d temp swept\n",
			*storeDir, rep.Recovered, rep.Quarantined, rep.PriorQuarantine, rep.TempRemoved)
		cfg.Store = st
	}

	srv := service.New(cfg)
	// WriteTimeout must outlast the longest admissible request, or the
	// server would cut off slow-but-legitimate responses; it exists so a
	// stuck peer cannot hold a connection forever.
	writeTimeout := time.Duration(0)
	if *timeout > 0 {
		writeTimeout = *timeout + 30*time.Second
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		// Readiness goes first: load balancers stop routing to this
		// instance while in-flight requests finish draining.
		srv.SetReady(false)
		fmt.Fprintln(os.Stderr, "ironhide-serve: draining in-flight requests")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "ironhide-serve: shutdown:", err)
		}
	}()

	fmt.Fprintf(os.Stderr, "ironhide-serve: listening on %s (cache %d traces, grid workers %d, timeout %s)\n",
		*addr, *cacheTraces, *gridWorkers, *timeout)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "ironhide-serve:", err)
		os.Exit(1)
	}
	<-done
}
