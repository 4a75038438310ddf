package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ironhide/internal/service"
	"ironhide/internal/store"
)

// daemonEnv, when set, makes the test binary run main() instead of the
// tests: the crash story re-executes itself as real ironhide-serve
// daemons, so SIGKILL hits a separate process with its own store.
const daemonEnv = "IRONHIDE_SERVE_AS_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemonCmd is this test binary re-executed as the daemon with args.
func daemonCmd(ctx context.Context, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	return cmd
}

// shard is one daemon of the test fleet: its URL, its -store directory
// and, while it runs, its process.
type shard struct {
	url, store string
	args       []string
	cmd        *exec.Cmd
}

// start spawns the shard and waits until it reports ready.
func (s *shard) start(t *testing.T) {
	t.Helper()
	s.cmd = daemonCmd(context.Background(), s.args...)
	s.cmd.Stdout, s.cmd.Stderr = os.Stderr, os.Stderr
	if err := s.cmd.Start(); err != nil {
		t.Fatalf("spawn %s: %v", s.url, err)
	}
	if err := (&service.Client{BaseURL: s.url}).WaitReady(t.Context(), 30*time.Second); err != nil {
		t.Fatalf("%s never became ready: %v", s.url, err)
	}
}

// kill SIGKILLs the shard — no drain, no fsync on exit — and reaps it.
func (s *shard) kill() {
	if s.cmd != nil {
		_ = s.cmd.Process.Kill() // fails only if the process already exited
		_ = s.cmd.Wait()         // "signal: killed" is the expected status
		s.cmd = nil
	}
}

// status reads the shard's /v1/status.
func (s *shard) status(t *testing.T) service.StatusResponse {
	t.Helper()
	var st service.StatusResponse
	if _, err := (&service.Client{BaseURL: s.url}).GetJSON(t.Context(), "/v1/status", &st); err != nil {
		t.Fatalf("%s status: %v", s.url, err)
	}
	return st
}

func freeAddr(t *testing.T) string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// commitQuery is a cheap run to commit. slowQuery's capture is slow
// enough that a SIGKILL sent once it shows in flight lands mid-capture.
func commitQuery(seed int64) service.Query {
	return service.Query{App: "sssp-graph", Model: "IRONHIDE", Scale: 0.05, Seed: seed}
}

func slowQuery(seed int64) service.Query {
	return service.Query{App: "aes-query", Model: "IRONHIDE", Scale: 0.25, Seed: seed}
}

// TestFleetCrashStory drives three real shards, each with its own store,
// through one crash: commit keys through the router, SIGKILL the owner of
// key 0 (the victim) with captures in flight, fail its keys over to
// replicas, rot one of its committed entries on disk, restart it, and
// require that rot is never served, that the victim re-warms from its
// store and peers instead of re-executing, and that every answer is
// byte-identical to the one given before the crash.
func TestFleetCrashStory(t *testing.T) {
	ctx := t.Context()
	members := make([]string, 3)
	for i := range members {
		members[i] = "http://" + freeAddr(t)
	}
	shards := make([]*shard, len(members))
	for i, url := range members {
		s := &shard{url: url, store: t.TempDir()}
		s.args = []string{"-addr", strings.TrimPrefix(url, "http://"), "-store", s.store,
			"-fleet-peers", strings.Join(members, ","), "-fleet-self", url, "-fleet-seed", "9"}
		shards[i] = s
		t.Cleanup(s.kill)
		s.start(t)
	}
	newRouter := func() *service.Router {
		rt, err := service.NewRouter(service.RouterConfig{Members: members, Seed: 9, Backoff: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	rt := newRouter()
	owner := func(seed int64) string {
		key, err := service.RouteKey(commitQuery(seed))
		if err != nil {
			t.Fatal(err)
		}
		return rt.Owners(key)[0]
	}
	var victim *shard
	for _, s := range shards {
		if s.url == owner(0) {
			victim = s
		}
	}

	// 1. Commit keys until the victim owns two and every shard one.
	var seeds, victimSeeds []int64
	owned := map[string]int{}
	for seed := int64(0); owned[victim.url] < 2 || len(owned) < len(shards); seed++ {
		if seed == 64 {
			t.Fatalf("64 seeds do not cover the ring: %v", owned)
		}
		o := owner(seed)
		seeds = append(seeds, seed)
		owned[o]++
		if o == victim.url {
			victimSeeds = append(victimSeeds, seed)
		}
	}
	committed := map[int64]json.RawMessage{}
	for _, seed := range seeds {
		var body json.RawMessage
		if _, err := rt.Query(ctx, "/v1/run", commitQuery(seed), &body); err != nil {
			t.Fatalf("commit seed %d: %v", seed, err)
		}
		committed[seed] = body
	}

	// 2. SIGKILL the victim once its slow captures are all executing.
	inflight := []int64{1000, 1001}
	sendCtx, cancelSends := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for _, seed := range inflight {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = (&service.Client{BaseURL: victim.url}).PostJSON(sendCtx, "/v1/run", slowQuery(seed), nil)
		}()
	}
	for deadline := time.Now().Add(30 * time.Second); victim.status(t).InFlight.Run < int64(len(inflight)); {
		if time.Now().After(deadline) {
			t.Fatal("the slow captures never showed in the victim's in_flight.run")
		}
		time.Sleep(time.Millisecond)
	}
	victim.kill()
	cancelSends()
	wg.Wait()

	// 3. The dark victim's keys fail over to their replicas, which capture
	// and store them: zero errors, zero wrong bytes.
	var failovers int
	for _, seed := range seeds {
		var body json.RawMessage
		res, err := rt.Query(ctx, "/v1/run", commitQuery(seed), &body)
		if err != nil {
			t.Fatalf("seed %d with the victim dark: %v", seed, err)
		}
		if res.Shard == victim.url {
			t.Fatalf("seed %d answered by the dead shard", seed)
		}
		if !bytes.Equal(body, committed[seed]) {
			t.Fatalf("seed %d diverged across the failover:\nbefore: %s\nafter:  %s", seed, committed[seed], body)
		}
		failovers += res.Failovers
	}
	if failovers == 0 {
		t.Fatal("the victim owns keys but no failover was recorded")
	}

	// 4. Rot one committed entry of the victim's, restart it on the same
	// store and route its keys back to it.
	rotted := victimSeeds[0]
	key, _ := service.RouteKey(commitQuery(rotted))
	path := filepath.Join(victim.store, store.FileName(key))
	entry, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("victim's committed entry for seed %d: %v", rotted, err)
	}
	entry[len(entry)/2] ^= 0x40
	if err := os.WriteFile(path, entry, 0o644); err != nil {
		t.Fatal(err)
	}
	victim.start(t)
	if st := victim.status(t); st.Store == nil || st.Store.Quarantined < 1 {
		t.Fatalf("the rotted entry was not quarantined: %+v", st.Store)
	}
	rt = newRouter()
	for _, seed := range victimSeeds {
		var body json.RawMessage
		res, err := rt.Query(ctx, "/v1/run", commitQuery(seed), &body)
		if err != nil {
			t.Fatalf("seed %d after restart: %v", seed, err)
		}
		if res.Shard != victim.url {
			t.Fatalf("seed %d answered by %s, want the restarted owner %s", seed, res.Shard, victim.url)
		}
		want := []string{"hit", "store"}
		if seed == rotted {
			want = []string{"peer"}
		}
		if src := res.Header.Get("X-Ironhide-Cache"); !slices.Contains(want, src) {
			t.Fatalf("seed %d served from %q, want one of %v", seed, src, want)
		}
		if !bytes.Equal(body, committed[seed]) {
			t.Fatalf("seed %d diverged across the crash:\nbefore: %s\nafter:  %s", seed, committed[seed], body)
		}
	}
	if st := victim.status(t); st.LiveCaptures != 0 || st.Fleet == nil || st.Fleet.PeerServed < 1 {
		t.Fatalf("restarted victim re-executed instead of re-warming: %d live captures, fleet %+v", st.LiveCaptures, st.Fleet)
	}

	// 5. The kill landed mid-capture: the interrupted seeds were never
	// committed, so the restarted victim captures them afresh.
	for _, seed := range inflight {
		cl := &service.Client{BaseURL: victim.url}
		var first, second json.RawMessage
		hdr, err := cl.PostJSON(ctx, "/v1/run", slowQuery(seed), &first)
		if err != nil {
			t.Fatalf("in-flight seed %d after restart: %v", seed, err)
		}
		if src := hdr.Get("X-Ironhide-Cache"); src != "capture" {
			t.Fatalf("in-flight seed %d served from %q: it committed before the SIGKILL", seed, src)
		}
		if _, err := cl.PostJSON(ctx, "/v1/run", slowQuery(seed), &second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("in-flight seed %d is non-deterministic after recovery", seed)
		}
	}

	// 6. SIGTERM drains every shard to a clean exit.
	for _, s := range shards {
		if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range shards {
		if err := s.cmd.Wait(); err != nil {
			t.Fatalf("%s after SIGTERM: %v", s.url, err)
		}
		s.cmd = nil
	}
}

// A -fleet-self missing from -fleet-peers would build a ring that differs
// from every peer's; the daemon refuses to start instead. A trailing slash
// is enough to miss.
func TestFleetSelfMustBeMember(t *testing.T) {
	ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
	defer cancel()
	peers := []string{"http://" + freeAddr(t), "http://" + freeAddr(t)}
	out, err := daemonCmd(ctx, "-addr", strings.TrimPrefix(peers[0], "http://"),
		"-fleet-peers", strings.Join(peers, ","), "-fleet-self", peers[0]+"/").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "is not one of -fleet-peers") {
		t.Fatalf("want exit 1 refusing the foreign -fleet-self, got %v:\n%s", err, out)
	}
}
