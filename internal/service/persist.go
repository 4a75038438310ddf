package service

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"

	"ironhide/internal/store"
	"ironhide/internal/trace"
)

// String renders the key as "app@scale#seed" — the identity under which
// the trace is persisted in the store. Scale uses the shortest exact
// float formatting, so every key ParseTraceKey accepts re-parses from its
// String bit-for-bit.
func (k TraceKey) String() string {
	return k.App + "@" + strconv.FormatFloat(k.Scale, 'g', -1, 64) + "#" + strconv.FormatInt(k.Seed, 10)
}

// ParseTraceKey inverts TraceKey.String. Application names may themselves
// contain '@' or '#', so the separators are resolved right-to-left. The
// scale must be finite and positive: Query.scale never keys a trace under
// any other value, and NaN would not equal itself after a round trip.
func ParseTraceKey(s string) (TraceKey, error) {
	hash := strings.LastIndexByte(s, '#')
	if hash < 0 {
		return TraceKey{}, fmt.Errorf("trace key %q: no '#seed' suffix", s)
	}
	seed, err := strconv.ParseInt(s[hash+1:], 10, 64)
	if err != nil {
		return TraceKey{}, fmt.Errorf("trace key %q: bad seed: %v", s, err)
	}
	at := strings.LastIndexByte(s[:hash], '@')
	if at < 0 {
		return TraceKey{}, fmt.Errorf("trace key %q: no '@scale' part", s)
	}
	scale, err := strconv.ParseFloat(s[at+1:hash], 64)
	if err != nil {
		return TraceKey{}, fmt.Errorf("trace key %q: bad scale: %v", s, err)
	}
	if !(scale > 0) || math.IsInf(scale, 1) {
		return TraceKey{}, fmt.Errorf("trace key %q: scale %v is not finite and positive", s, scale)
	}
	if at == 0 {
		return TraceKey{}, fmt.Errorf("trace key %q: empty app", s)
	}
	return TraceKey{App: s[:at], Scale: scale, Seed: seed}, nil
}

// StoreStatus reports the persistent trace store in /v1/status.
type StoreStatus struct {
	store.Stats
	// Prewarmed counts traces loaded into the LRU at startup.
	Prewarmed int `json:"prewarmed"`
	// PutErrors counts failed write-throughs. A failed Put never fails the
	// request — the trace is already good — but it does mean the entry
	// will be re-captured after a restart.
	PutErrors int64 `json:"put_errors"`
	// DecodeRejects counts store payloads whose frame passed the CRC but
	// whose trace decode failed (e.g. written by a different codec
	// version). They are treated as misses and re-captured.
	DecodeRejects int64 `json:"decode_rejects"`
}

// persistence is the server's read-through/write-through binding to the
// crash-safe store. A nil *persistence disables persistence entirely.
type persistence struct {
	st *store.Store

	prewarmed     int
	putErrors     atomic.Int64
	decodeRejects atomic.Int64
}

// load fetches and decodes a persisted trace. A corrupt frame (quarantined
// by the store on read) or an undecodable payload is a miss: the caller
// falls through to a fresh capture, which will overwrite the entry.
func (p *persistence) load(key TraceKey) (*trace.Trace, bool) {
	if p == nil {
		return nil, false
	}
	b, ok, err := p.st.Get(key.String())
	if err != nil || !ok {
		return nil, false
	}
	tr, err := trace.Unmarshal(b)
	if err != nil {
		p.decodeRejects.Add(1)
		return nil, false
	}
	return tr, true
}

// raw fetches the marshalled trace payload for key without decoding it.
// The store CRC-verified the frame on read, so the bytes are exactly what
// a successful Put committed. The peer trace endpoint serves these bytes
// re-framed, avoiding a decode/re-encode round trip per fleet fetch.
func (p *persistence) raw(key TraceKey) ([]byte, bool) {
	if p == nil {
		return nil, false
	}
	b, ok, err := p.st.Get(key.String())
	if err != nil || !ok {
		return nil, false
	}
	return b, true
}

// save persists a freshly captured trace, best-effort.
func (p *persistence) save(key TraceKey, tr *trace.Trace) {
	if p == nil {
		return
	}
	if err := p.st.Put(key.String(), trace.Marshal(tr)); err != nil {
		p.putErrors.Add(1)
	}
}

// prewarm seeds the LRU from the store, newest keys first as returned by
// Keys (alphabetical — good enough for a warm start; the LRU reorders
// under live traffic). Undecodable payloads are skipped and counted.
func (p *persistence) prewarm(cache *TraceCache) {
	if p == nil {
		return
	}
	for _, ks := range p.st.Keys() {
		key, err := ParseTraceKey(ks)
		if err != nil {
			p.decodeRejects.Add(1)
			continue
		}
		tr, ok := p.load(key)
		if !ok {
			continue
		}
		if !cache.Seed(key, tr) {
			break // cache full
		}
		p.prewarmed++
	}
}

// status snapshots the persistence layer. Safe on nil.
func (p *persistence) status() *StoreStatus {
	if p == nil {
		return nil
	}
	return &StoreStatus{
		Stats:         p.st.Stats(),
		Prewarmed:     p.prewarmed,
		PutErrors:     p.putErrors.Load(),
		DecodeRejects: p.decodeRejects.Load(),
	}
}
