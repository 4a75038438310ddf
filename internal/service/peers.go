package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ironhide/internal/fleet"
	"ironhide/internal/store"
	"ironhide/internal/trace"
)

// FleetConfig shards the server into a coordinator-free cluster: every
// instance is handed the same static membership and placement seed,
// builds the same consistent-hash ring, and therefore agrees with every
// peer (and every routing client) on which shard owns which trace key —
// with no leader and no gossip. A shard that misses locally on a key
// fetches the trace from the key's other replicas over GET /v1/trace/
// {key} — the store's checksummed entry framing, CRC re-verified on
// receipt — before falling back to a fresh capture, so a shard restart or
// a ring change re-warms from peers instead of re-executing payloads.
type FleetConfig struct {
	// Self is this instance's base URL exactly as it appears in Members
	// (e.g. "http://10.0.0.3:8372").
	Self string
	// Members lists every shard's base URL, including Self. Order does not
	// matter; the set does.
	Members []string
	// Seed is the ring placement seed. All participants must agree.
	Seed int64
	// VNodes is the virtual-node count per member (default fleet.DefaultVNodes).
	VNodes int
	// Replicas is the replica-set size per key: the owner plus Replicas-1
	// backups (default fleet.DefaultReplicas).
	Replicas int
	// HTTP is the peer-fetch client (default: a dedicated client).
	HTTP *http.Client
	// FetchTimeout bounds one peer-fetch attempt (default 3s). Keep it
	// short: a slow peer must not cost more than the capture it avoids.
	FetchTimeout time.Duration
}

func (fc *FleetConfig) replicas() int {
	if fc.Replicas > 0 {
		return fc.Replicas
	}
	return fleet.DefaultReplicas
}

// FleetIdentity is a shard's place in the fleet: its own URL and the ring
// parameters every member and router must share. /v1/status, /v1/ring and
// /v1/readyz all lead with it.
type FleetIdentity struct {
	Self     string   `json:"self"`
	Members  []string `json:"members"`
	Seed     int64    `json:"seed"`
	VNodes   int      `json:"vnodes"`
	Replicas int      `json:"replicas"`
}

// FleetStatus reports sharding state in /v1/status.
type FleetStatus struct {
	FleetIdentity
	// OwnedKeys counts committed store keys this shard owns per the ring.
	OwnedKeys int `json:"owned_keys"`
	// StoreKeys counts all committed store keys on this shard (owned or
	// held as a replica/backup).
	StoreKeys int `json:"store_keys"`
	// PeerFetches counts local misses that consulted peers at all.
	PeerFetches int64 `json:"peer_fetches"`
	// PeerServed counts traces obtained from a peer (capture avoided).
	PeerServed int64 `json:"peer_served"`
	// PeerMisses counts peer consultations where no peer had the trace.
	PeerMisses int64 `json:"peer_misses"`
	// PeerErrors counts transport-level peer failures (down peer, timeout).
	PeerErrors int64 `json:"peer_errors"`
	// PeerCorrupt counts peer payloads rejected by CRC/decode on receipt.
	PeerCorrupt int64 `json:"peer_corrupt"`
	// QuarantinedPeers lists peers no longer consulted after serving
	// corrupt bytes.
	QuarantinedPeers []string `json:"quarantined_peers,omitempty"`
	// TraceServed counts GET /v1/trace responses served to peers.
	TraceServed int64 `json:"trace_served"`
}

// peerFetcher resolves local trace misses against the key's other
// replicas. A peer that serves a corrupt frame — CRC mismatch, key
// mismatch, or an undecodable trace payload — is quarantined as a source
// for the rest of this process's life: corruption is not transient the
// way a refused connection is, and the peer will quarantine its own
// on-disk entry the next time it reads it anyway.
type peerFetcher struct {
	self     string
	ring     *fleet.Ring
	replicas int
	http     *http.Client
	timeout  time.Duration

	mu          sync.Mutex
	quarantined map[string]string // peer → first corruption seen

	fetches, served, misses, errors, corrupt atomic.Int64
	traceServed                              atomic.Int64
}

func newPeerFetcher(fc *FleetConfig) *peerFetcher {
	hc := fc.HTTP
	if hc == nil {
		hc = &http.Client{}
	}
	timeout := fc.FetchTimeout
	if timeout <= 0 {
		timeout = 3 * time.Second
	}
	return &peerFetcher{
		self:        fc.Self,
		ring:        fleet.NewRing(fc.Members, fc.Seed, fc.VNodes),
		replicas:    fc.replicas(),
		http:        hc,
		timeout:     timeout,
		quarantined: map[string]string{},
	}
}

// TracePath returns the peer-fetch URL path for a trace key. The key is
// path-escaped: application names carry spaces, commas and '#'.
func TracePath(key string) string {
	return "/v1/trace/" + url.PathEscape(key)
}

// maxPeerTrace bounds one fetched trace frame (64 MiB — far above any
// real capture, small enough to stop a misbehaving peer from ballooning
// memory).
const maxPeerTrace = 64 << 20

// fetch tries the key's other replicas for its trace, in ring order.
// It returns the trace and the peer that served it, or ok=false when no
// healthy peer had it — the caller then falls back to capture.
func (p *peerFetcher) fetch(ctx context.Context, key TraceKey) (*trace.Trace, string, bool) {
	if p == nil {
		return nil, "", false
	}
	ks := key.String()
	asked := false
	for _, peer := range p.ring.Owners(ks, p.replicas) {
		if peer == p.self || p.isQuarantined(peer) {
			continue
		}
		if !asked {
			asked = true
			p.fetches.Add(1)
		}
		tr, err := p.fetchOne(ctx, peer, ks)
		if err == nil && tr != nil {
			p.served.Add(1)
			return tr, peer, true
		}
		if err != nil {
			var ce *corruptPeerError
			if isCorrupt(err, &ce) {
				p.corrupt.Add(1)
				p.quarantine(peer, ce.reason)
			} else {
				p.errors.Add(1)
			}
		}
		if ctx.Err() != nil {
			break
		}
	}
	if asked {
		p.misses.Add(1)
	}
	return nil, "", false
}

// corruptPeerError marks a peer response rejected by integrity checks.
type corruptPeerError struct{ reason string }

func (e *corruptPeerError) Error() string { return "corrupt peer trace: " + e.reason }

func isCorrupt(err error, out **corruptPeerError) bool {
	ce, ok := err.(*corruptPeerError)
	if ok {
		*out = ce
	}
	return ok
}

// fetchOne fetches one trace frame from one peer. A nil, nil return means
// the peer answered cleanly but does not have the key (404).
func (p *peerFetcher) fetchOne(ctx context.Context, peer, key string) (*trace.Trace, error) {
	ctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+TracePath(key), nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, nil
	case resp.StatusCode != http.StatusOK:
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("peer %s: status %d", peer, resp.StatusCode)
	}
	frame, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerTrace+1))
	if err != nil {
		return nil, err
	}
	if len(frame) > maxPeerTrace {
		return nil, &corruptPeerError{reason: "frame exceeds size bound"}
	}
	// The wire format IS the store's entry framing: CRC-32C over the whole
	// frame, the authoritative key inside it. Re-verify both on receipt —
	// a bit flip anywhere between the peer's disk and this socket must be
	// caught here, never replayed.
	gotKey, payload, err := store.DecodeEntry(frame)
	if err != nil {
		return nil, &corruptPeerError{reason: err.Error()}
	}
	if gotKey != key {
		return nil, &corruptPeerError{reason: fmt.Sprintf("frame carries key %q, want %q", gotKey, key)}
	}
	tr, err := trace.Unmarshal(payload)
	if err != nil {
		return nil, &corruptPeerError{reason: "trace decode: " + err.Error()}
	}
	return tr, nil
}

func (p *peerFetcher) isQuarantined(peer string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, bad := p.quarantined[peer]
	return bad
}

func (p *peerFetcher) quarantine(peer, reason string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.quarantined[peer]; !dup {
		p.quarantined[peer] = reason
	}
}

// identity reports this shard's place in the fleet.
func (p *peerFetcher) identity() FleetIdentity {
	return FleetIdentity{
		Self:     p.self,
		Members:  p.ring.Members(),
		Seed:     p.ring.Seed(),
		VNodes:   p.ring.VNodes(),
		Replicas: p.replicas,
	}
}

// status snapshots the fleet layer. ownedKeys is computed by the caller
// (it needs the store).
func (p *peerFetcher) status(storeKeys []string) *FleetStatus {
	if p == nil {
		return nil
	}
	owned := 0
	for _, k := range storeKeys {
		if p.ring.Owner(k) == p.self {
			owned++
		}
	}
	p.mu.Lock()
	var quarantined []string
	for peer := range p.quarantined {
		quarantined = append(quarantined, peer)
	}
	p.mu.Unlock()
	sort.Strings(quarantined)
	return &FleetStatus{
		FleetIdentity:    p.identity(),
		OwnedKeys:        owned,
		StoreKeys:        len(storeKeys),
		PeerFetches:      p.fetches.Load(),
		PeerServed:       p.served.Load(),
		PeerMisses:       p.misses.Load(),
		PeerErrors:       p.errors.Load(),
		PeerCorrupt:      p.corrupt.Load(),
		QuarantinedPeers: quarantined,
		TraceServed:      p.traceServed.Load(),
	}
}
