package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// LoadReport summarizes one load-generation phase against a running
// fleet: request counts, wall-clock throughput, and latency percentiles.
type LoadReport struct {
	Name        string
	Requests    int
	Errors      int
	Concurrency int
	Duration    time.Duration
	P50, P90    time.Duration
	P99         time.Duration
	// Failovers counts shard attempts abandoned in favor of a replica. A
	// failover is NOT an error: the request succeeded, it just took more
	// than one shard to get there — the two must stay separately visible
	// or a dying shard hides inside the error rate.
	Failovers int
	// PerShard breaks successful requests down by the shard that answered.
	// The fleet selftest asserts routing balance on it.
	PerShard map[string]*ShardLoad
	// FirstError carries the first error observed, for diagnostics.
	FirstError string
}

// ShardLoad is one shard's slice of a load phase.
type ShardLoad struct {
	// Requests counts successful responses answered by this shard.
	Requests int `json:"requests"`
	// Hits counts those served from the shard's settled trace cache
	// (X-Ironhide-Cache: hit).
	Hits int `json:"hits"`
	// PeerFetched counts those whose trace came from a fleet peer
	// (X-Ironhide-Cache: peer) — warm capacity that moved, not re-ran.
	PeerFetched int `json:"peer_fetched"`
}

// MaxShardSkew returns the busiest shard's successful-request count over
// the per-shard mean (1 = perfectly balanced; 0 when nothing succeeded or
// the stream was unrouted). The fleet selftest bounds it.
func (r *LoadReport) MaxShardSkew() float64 {
	if len(r.PerShard) == 0 {
		return 0
	}
	total, max := 0, 0
	for _, s := range r.PerShard {
		total += s.Requests
		if s.Requests > max {
			max = s.Requests
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(r.PerShard))
	return float64(max) / mean
}

// recordShard attributes one successful response to its shard.
func (r *LoadReport) recordShard(shard, src string) {
	if shard == "" {
		return
	}
	if r.PerShard == nil {
		r.PerShard = map[string]*ShardLoad{}
	}
	sl := r.PerShard[shard]
	if sl == nil {
		sl = &ShardLoad{}
		r.PerShard[shard] = sl
	}
	sl.Requests++
	switch src {
	case "hit":
		sl.Hits++
	case "peer":
		sl.PeerFetched++
	}
}

// ThroughputRPS returns successful requests per wall-clock second.
func (r *LoadReport) ThroughputRPS() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Requests-r.Errors) / r.Duration.Seconds()
}

// ErrorRate is the fraction of requests that failed.
func (r *LoadReport) ErrorRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Errors) / float64(r.Requests)
}

// String renders the report as one human line.
func (r *LoadReport) String() string {
	line := fmt.Sprintf("%-12s %4d reqs × %d workers in %8s  →  %8.2f req/s   p50 %s  p90 %s  p99 %s  (%.0f%% errors)",
		r.Name, r.Requests, r.Concurrency, r.Duration.Round(time.Millisecond), r.ThroughputRPS(),
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond), r.P99.Round(time.Microsecond),
		100*r.ErrorRate())
	if r.Failovers > 0 {
		line += fmt.Sprintf(", %d failovers", r.Failovers)
	}
	return line
}

// ShardLine renders the per-shard distribution as one human line, shards
// sorted by name ("" when the stream was unrouted).
func (r *LoadReport) ShardLine() string {
	if len(r.PerShard) == 0 {
		return ""
	}
	shards := make([]string, 0, len(r.PerShard))
	for s := range r.PerShard {
		shards = append(shards, s)
	}
	sort.Strings(shards)
	parts := make([]string, len(shards))
	for i, s := range shards {
		sl := r.PerShard[s]
		parts[i] = fmt.Sprintf("%s: %d reqs (%d hit, %d peer)", s, sl.Requests, sl.Hits, sl.PeerFetched)
	}
	return strings.Join(parts, "  ")
}

// RoutedTarget is one request of a routed load stream: a query aimed at
// a fleet endpoint through a Router.
type RoutedTarget struct {
	Path  string
	Query Query
}

// HammerRouter fires every target through the consistent-hash router from
// `concurrency` workers, recording which shard answered, the cache source
// per response, and failovers separately from errors — a request that
// rode over to a replica after its owner died is a success with a
// failover, not an error. Bodies returns each successful raw response
// body (index-aligned with targets; nil on error), so callers can diff
// them against an oracle.
func HammerRouter(name string, rt *Router, targets []RoutedTarget, concurrency int) (*LoadReport, [][]byte) {
	if concurrency < 1 {
		concurrency = 1
	}
	if concurrency > len(targets) {
		concurrency = len(targets)
	}
	latencies := make([]time.Duration, len(targets))
	errs := make([]string, len(targets))
	shards := make([]string, len(targets))
	srcs := make([]string, len(targets))
	failovers := make([]int, len(targets))
	bodies := make([][]byte, len(targets))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(targets); i += concurrency {
				t0 := time.Now()
				var raw json.RawMessage
				res, err := rt.Query(context.Background(), targets[i].Path, targets[i].Query, &raw)
				failovers[i] = res.Failovers
				if err != nil {
					errs[i] = err.Error()
					continue
				}
				latencies[i] = time.Since(t0)
				shards[i] = res.Shard
				if res.Header != nil {
					srcs[i] = res.Header.Get("X-Ironhide-Cache")
				}
				bodies[i] = raw
			}
		}(w)
	}
	wg.Wait()
	rep := &LoadReport{Name: name, Requests: len(targets), Concurrency: concurrency, Duration: time.Since(start)}
	var ok []time.Duration
	for i, l := range latencies {
		rep.Failovers += failovers[i]
		if errs[i] != "" {
			rep.Errors++
			if rep.FirstError == "" {
				rep.FirstError = errs[i]
			}
			continue
		}
		rep.recordShard(shards[i], srcs[i])
		ok = append(ok, l)
	}
	sort.Slice(ok, func(a, b int) bool { return ok[a] < ok[b] })
	rep.P50 = percentile(ok, 0.50)
	rep.P90 = percentile(ok, 0.90)
	rep.P99 = percentile(ok, 0.99)
	return rep, bodies
}

// percentile reads the p-quantile from sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}
