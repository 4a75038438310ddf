package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"ironhide/internal/apps"
	"ironhide/internal/arch"
	"ironhide/internal/core"
	"ironhide/internal/driver"
	"ironhide/internal/runner"
	"ironhide/internal/service"
	"ironhide/internal/store"
	"ironhide/internal/trace"
)

// fleetPair is an in-process 2-shard fleet: each shard a default-config
// server with a crash-safe store in its own directory, plus the router
// that sends each query to its key's owner.
type fleetPair struct {
	dir     string
	stores  [2]*store.Store
	srvs    [2]*service.Server
	hts     [2]*httptest.Server
	members [2]string
	index   map[string]int
	rt      *service.Router
	client  *http.Client
}

func newFleetPair(cfg arch.Config) (*fleetPair, error) {
	dir, err := os.MkdirTemp("", "ironhide-bench-fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleetPair{dir: dir, index: map[string]int{}, client: loadClient()}
	for i := range f.hts {
		f.hts[i] = httptest.NewUnstartedServer(nil)
		f.members[i] = "http://" + f.hts[i].Listener.Addr().String()
		f.index[f.members[i]] = i
	}
	for i := range f.hts {
		st, _, err := store.Open(filepath.Join(dir, fmt.Sprintf("shard%d", i)), store.OSFS{})
		if err != nil {
			_ = f.close()
			return nil, err
		}
		f.stores[i] = st
		f.srvs[i] = service.New(service.Config{
			Arch:  cfg,
			Store: st,
			Fleet: &service.FleetConfig{Self: f.members[i], Members: f.members[:]},
		})
		f.hts[i].Config.Handler = f.srvs[i]
		f.hts[i].Start()
	}
	f.rt, err = service.NewRouter(service.RouterConfig{Members: f.members[:], HTTP: f.client})
	if err != nil {
		_ = f.close()
		return nil, err
	}
	return f, nil
}

// shards returns the indices of key's owner and of the other shard.
func (f *fleetPair) shards(key string) (owner, peer int) {
	o := f.index[f.rt.Owners(key)[0]]
	return o, 1 - o
}

func (f *fleetPair) close() error {
	for _, ht := range f.hts {
		if ht != nil {
			ht.Close()
		}
	}
	f.client.CloseIdleConnections()
	return os.RemoveAll(f.dir)
}

// The three rungs of the trace-resolution ladder a cold request can
// resolve on, named by the X-Ironhide-Cache value each answers with.
var rungs = []string{"store", "peer", "capture"}

// serveCold sends unique-seed /v1/run queries through the router. Before
// each request the client places the trace for its rung: in the owner's
// store, only in the other shard's store (the owner fetches it from that
// peer and writes it through), or nowhere (the owner captures and writes
// it). The binding is pinned, so no search runs.
type serveCold struct {
	cfg     arch.Config
	seed    int64
	f       *fleetPair
	payload map[string][]byte // marshalled trace per application
	want    map[string][]byte // reference body per application
	base    []service.StatusResponse
}

func setupServeCold(seed int64) (instance, error) {
	s := &serveCold{cfg: machine(), seed: seed,
		payload: map[string][]byte{}, want: map[string][]byte{}}
	var err error
	if s.f, err = newFleetPair(s.cfg); err != nil {
		return nil, err
	}
	for _, app := range serveApps {
		e, err := apps.Find(app)
		if err != nil {
			s.close()
			return nil, err
		}
		tr, err := driver.CaptureTrace(s.cfg, e.Factory, driver.Options{Scale: scale})
		if err != nil {
			s.close()
			return nil, err
		}
		s.payload[app] = trace.Marshal(tr)
		res, err := driver.RunTrace(s.cfg, core.New(32), tr, driver.Options{Scale: scale, FixedSecureCores: 32})
		if err != nil {
			s.close()
			return nil, err
		}
		body, err := encodeBody(res)
		if err != nil {
			s.close()
			return nil, err
		}
		// The router decodes into a json.RawMessage, which keeps the value
		// but not the trailing newline.
		s.want[app] = bytes.TrimSuffix(body, []byte("\n"))
	}
	return s, nil
}

// request is operation i's query, the rung it must resolve on, and its
// kind.
func (s *serveCold) request(i int) (service.Query, string, int) {
	k := blockIndex(s.seed, i, len(serveApps)*len(rungs))
	q := service.Query{
		App: serveApps[k%len(serveApps)], Model: "IRONHIDE", Scale: scale,
		Seed: runner.SeedFor(s.seed, i), FixedSecureCores: 32,
	}
	return q, rungs[k/len(serveApps)], k
}

// place puts operation i's trace where its rung expects it.
func (s *serveCold) place(q service.Query, rung string) (key string, owner, peer int, err error) {
	if key, err = service.RouteKey(q); err != nil {
		return "", 0, 0, err
	}
	owner, peer = s.f.shards(key)
	switch rung {
	case "store":
		err = s.f.stores[owner].Put(key, s.payload[q.App])
	case "peer":
		err = s.f.stores[peer].Put(key, s.payload[q.App])
	}
	return key, owner, peer, err
}

// unplace removes the key from both stores, so a window's disk use stays
// bounded; no key is ever requested twice.
func (s *serveCold) unplace(key string) error {
	for _, st := range s.f.stores {
		if err := st.Delete(key); err != nil {
			return err
		}
	}
	return nil
}

func (s *serveCold) op(i int) ([]sample, error) {
	q, rung, k := s.request(i)
	key, owner, _, err := s.place(q, rung)
	if err != nil {
		return nil, fmt.Errorf("place %s: %w", key, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var raw json.RawMessage
	t0 := time.Now()
	res, err := s.f.rt.Query(ctx, "/v1/run", q, &raw)
	d := time.Since(t0)
	if err != nil {
		return nil, err
	}
	switch {
	case res.Failovers != 0:
		return nil, fmt.Errorf("%s: %d failovers, want 0", key, res.Failovers)
	case res.Shard != s.f.members[owner]:
		return nil, fmt.Errorf("%s: answered by %s, want the owner %s", key, res.Shard, s.f.members[owner])
	case res.Header.Get("X-Ironhide-Cache") != rung:
		return nil, fmt.Errorf("%s: trace source %q, want %q", key, res.Header.Get("X-Ironhide-Cache"), rung)
	case !bytes.Equal(raw, s.want[q.App]):
		return nil, fmt.Errorf("%s: body differs from the direct reference", key)
	}
	if err := s.unplace(key); err != nil {
		return nil, err
	}
	return []sample{{k, d}}, nil
}

// traced resolves operation i's trace down the same rung as direct calls
// against the same stores and peer, then replays and encodes it.
func (s *serveCold) traced(t *tracer, parent, i int) error {
	q, rung, _ := s.request(i)
	key, owner, peer, err := s.place(q, rung)
	if err != nil {
		return err
	}
	var tr *trace.Trace
	switch rung {
	case "store":
		var b []byte
		if err := t.do("store.get", parent, i, func() (int64, error) {
			var ok bool
			var err error
			if b, ok, err = s.f.stores[owner].Get(key); err == nil && !ok {
				err = fmt.Errorf("store lost %s", key)
			}
			return int64(len(b)), err
		}); err != nil {
			return err
		}
		if err := t.do("trace.unmarshal", parent, i, func() (int64, error) {
			var err error
			tr, err = trace.Unmarshal(b)
			return int64(len(b)), err
		}); err != nil {
			return err
		}
	case "peer":
		if tr, err = peerFetch(t, parent, i, s.f.client, s.f.members[peer], key); err != nil {
			return err
		}
		if err := writeThrough(t, parent, i, s.f.stores[owner], key, tr); err != nil {
			return err
		}
	case "capture":
		// The owner first asks its peer, which has nothing.
		if err := t.do("fleet.peer_miss", parent, i, func() (int64, error) {
			_, err := peerFetch(nil, 0, 0, s.f.client, s.f.members[peer], key)
			if err == nil {
				err = fmt.Errorf("peer unexpectedly holds %s", key)
			} else if errors.Is(err, errPeerMiss) {
				err = nil
			}
			return 0, err
		}); err != nil {
			return err
		}
		e, err := apps.Find(q.App)
		if err != nil {
			return err
		}
		if tr, err = capture(t, parent, i, s.cfg, e); err != nil {
			return err
		}
		if err := writeThrough(t, parent, i, s.f.stores[owner], key, tr); err != nil {
			return err
		}
	}
	body, err := runBody(t, parent, i, s.cfg, modelFactory(q.Model), tr, q.Options())
	if err != nil {
		return err
	}
	if !bytes.Equal(bytes.TrimSuffix(body, []byte("\n")), s.want[q.App]) {
		return fmt.Errorf("traced %s: body differs from the reference", key)
	}
	return s.unplace(key)
}

// writeThrough is the server's store write-through: marshal, then a
// durable put.
func writeThrough(t *tracer, parent, op int, st *store.Store, key string, tr *trace.Trace) error {
	var b []byte
	_ = t.do("trace.marshal", parent, op, func() (int64, error) {
		b = trace.Marshal(tr)
		return int64(len(b)), nil
	})
	return t.do("store.put", parent, op, func() (int64, error) {
		return int64(len(b)), st.Put(key, b)
	})
}

// errPeerMiss is a peer answering that it does not hold the trace.
var errPeerMiss = errors.New("peer does not hold the trace")

// peerFetch is the fleet's peer rung as direct calls: GET the trace's
// checksummed frame from the peer and verify it, then decode the trace.
func peerFetch(t *tracer, parent, op int, client *http.Client, base, key string) (*trace.Trace, error) {
	var payload []byte
	if err := t.do("fleet.peer_fetch", parent, op, func() (int64, error) {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+service.TracePath(key), nil)
		if err != nil {
			return 0, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		frame, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusNotFound:
			return 0, errPeerMiss
		default:
			return 0, fmt.Errorf("peer %s: status %d", base, resp.StatusCode)
		}
		got, p, err := store.DecodeEntry(frame)
		if err == nil && got != key {
			err = fmt.Errorf("peer frame carries key %q, want %q", got, key)
		}
		payload = p
		return int64(len(frame)), err
	}); err != nil {
		return nil, err
	}
	var tr *trace.Trace
	err := t.do("trace.unmarshal", parent, op, func() (int64, error) {
		var err error
		tr, err = trace.Unmarshal(payload)
		return int64(len(payload)), err
	})
	return tr, err
}

func (s *serveCold) begin() error {
	s.base = nil
	for _, m := range s.f.members {
		st, err := status(m)
		if err != nil {
			return err
		}
		s.base = append(s.base, st)
	}
	return nil
}

func (s *serveCold) finish(from, to int) (counters, []error) {
	cs, err := cacheCounters(s.f.members[:], s.base)
	if err != nil {
		return cs, []error{err}
	}
	return cs, nil
}

func (s *serveCold) ledger() ledgerInputs { return ledgerInputs{apps: serveApps} }

func (s *serveCold) close() error {
	if s.f == nil {
		return nil
	}
	return s.f.close()
}
