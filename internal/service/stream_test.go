package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ironhide/internal/scenario"
)

// streamSpec is the reference timeline the stream tests run: arrivals, a
// load shift and a departure, so every event type has a chance to fire.
func streamSpec() ScenarioRequest {
	return ScenarioRequest{Spec: scenario.Spec{
		Seed: 42, Scale: 0.05, Apps: []string{"aes-query", "sssp-graph"},
		Timeline: []scenario.Event{
			{Kind: scenario.Arrive, App: "aes-query"},
			{Kind: scenario.Arrive, App: "sssp-graph"},
			{Kind: scenario.LoadShift, App: "aes-query", Factor: 2},
			{Kind: scenario.Depart, App: "aes-query"},
		},
	}}
}

// TestScenarioStreamMatchesBlocking is the tentpole contract: under every
// reconfiguration policy, the streamed response's terminal report
// reconstructs the blocking body byte-for-byte at any worker count — here
// the server-side fan-out at 1 and 4 workers, both diffed against the
// blocking oracle — and the event sequences themselves marshal to the
// same bytes at both worker counts.
func TestScenarioStreamMatchesBlocking(t *testing.T) {
	_, blockingTS := testServer(t, Config{GridWorkers: 4})
	clients := map[int]*Client{}
	for _, workers := range []int{1, 4} {
		_, ts := testServer(t, Config{GridWorkers: workers})
		clients[workers] = &Client{BaseURL: ts.URL, HTTP: ts.Client()}
	}

	for _, policy := range scenario.ReconfigPolicyNames() {
		req := streamSpec()
		req.Spec.ReconfigPolicy = policy
		resp, blocking := post(t, blockingTS, "/v1/scenario", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: blocking status %d: %s", policy, resp.StatusCode, blocking)
		}

		eventBytes := map[int][]byte{}
		for _, workers := range []int{1, 4} {
			var events []scenario.StreamEvent
			out, err := clients[workers].ScenarioStream(context.Background(), req, func(ev scenario.StreamEvent) {
				events = append(events, ev)
			})
			if err != nil {
				t.Fatalf("%s, workers %d: %v", policy, workers, err)
			}
			if !bytes.Equal(out.Body, blocking) {
				t.Fatalf("%s, workers %d: streamed terminal report is not the blocking body:\n%s\nvs\n%s",
					policy, workers, out.Body, blocking)
			}
			if out.Events != len(events) || out.Events == 0 {
				t.Fatalf("%s, workers %d: %d events delivered, callback saw %d", policy, workers, out.Events, len(events))
			}
			if out.Cache != srcCapture && out.Cache != srcHit {
				t.Fatalf("%s, workers %d: cache source %q", policy, workers, out.Cache)
			}
			// The event sequence must cover the timeline: one phase-complete
			// per phase, in order, plus at least the arrival/departure events.
			var phases, arrivals, departs int
			for _, ev := range events {
				switch ev.Type {
				case scenario.EvPhaseComplete:
					if ev.Phase != phases {
						t.Fatalf("%s, workers %d: phase-complete out of order: got %d, want %d", policy, workers, ev.Phase, phases)
					}
					phases++
				case scenario.EvTenantArrive:
					arrivals++
				case scenario.EvTenantDepart:
					departs++
				}
			}
			if phases != len(out.Report.Phases) || arrivals != 2 || departs != 1 {
				t.Fatalf("%s, workers %d: %d phase-completes (%d phases), %d arrivals, %d departs",
					policy, workers, phases, len(out.Report.Phases), arrivals, departs)
			}
			if eventBytes[workers], err = json.Marshal(events); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(eventBytes[1], eventBytes[4]) {
			t.Fatalf("%s: event streams diverge across worker counts:\n%s\nvs\n%s", policy, eventBytes[1], eventBytes[4])
		}
	}
}

// TestScenarioStreamNDJSONFraming inspects the raw wire: one compact JSON
// object per line, the last being the terminal report chunk, under the
// NDJSON content type.
func TestScenarioStreamNDJSONFraming(t *testing.T) {
	s, ts := testServer(t, Config{})
	req := streamSpec()
	req.Stream = true
	b, _ := json.Marshal(req)
	resp, err := ts.Client().Post(ts.URL+"/v1/scenario", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != ContentTypeNDJSON {
		t.Fatalf("content type %q, want %q", got, ContentTypeNDJSON)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<22)
	var lines [][]byte
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("only %d lines", len(lines))
	}
	for i, line := range lines {
		var chunk ScenarioStreamEvent
		if err := json.Unmarshal(line, &chunk); err != nil {
			t.Fatalf("line %d is not a JSON object: %v (%q)", i, err, line)
		}
		if bytes.ContainsAny(line, "\n") || !bytes.Equal(line, bytes.TrimSpace(line)) {
			t.Fatalf("line %d is not compact: %q", i, line)
		}
		terminal := i == len(lines)-1
		if terminal != (chunk.Type == StreamChunkReport) {
			t.Fatalf("line %d: type %q (terminal=%v)", i, chunk.Type, terminal)
		}
	}
	// The slot is returned before the terminal chunk is written, so a
	// client that has read the whole stream never sees it held.
	if st := s.gate.stats(); st.InUse != 0 {
		t.Fatalf("gate stats %+v after the terminal chunk: want all slots returned", st)
	}
}

// TestScenarioStreamSSEFraming: Accept: text/event-stream switches the
// framing to SSE — event:/data: lines per chunk — with the same chunks.
func TestScenarioStreamSSEFraming(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := streamSpec()
	req.Stream = true
	b, _ := json.Marshal(req)
	hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/scenario", bytes.NewReader(b))
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("Accept", ContentTypeSSE)
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != ContentTypeSSE {
		t.Fatalf("content type %q, want %q", got, ContentTypeSSE)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<22)
	var datas int
	lastEvent := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			lastEvent = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			datas++
			var chunk ScenarioStreamEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &chunk); err != nil {
				t.Fatalf("bad data line: %v", err)
			}
			if chunk.Type != lastEvent {
				t.Fatalf("data type %q under event header %q", chunk.Type, lastEvent)
			}
		case line == "":
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if datas < 2 || lastEvent != StreamChunkReport {
		t.Fatalf("%d data lines, last event %q", datas, lastEvent)
	}
}

// TestScenarioStreamRejectsBadSpec: validation failures — the negative
// reconfig_limit bug among them — keep plain JSON status semantics on the
// streamed path, because nothing has been streamed yet.
func TestScenarioStreamRejectsBadSpec(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := streamSpec()
	req.Stream = true
	req.Spec.ReconfigLimit = -1
	resp, body := post(t, ts, "/v1/scenario", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, "reconfig_limit") {
		t.Fatalf("error body %q (%v)", body, err)
	}
}

// TestRouterScenarioStreamFirstByteFailover: a dead owner is failed over
// before the first chunk, and the replica's stream reconstructs the same
// blocking body.
func TestRouterScenarioStreamFirstByteFailover(t *testing.T) {
	_, tss, rt := routedFleet(t, 41)
	req := streamSpec()

	out, res, err := rt.ScenarioStream(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers != 0 {
		t.Fatalf("%d failovers on a healthy fleet", res.Failovers)
	}
	healthy := out.Body

	// Kill the shard that answered; its replicas must pick the stream up.
	for i, ts := range tss {
		if ts.URL == res.Shard {
			tss[i].CloseClientConnections()
			tss[i].Close()
		}
	}
	out2, res2, err := rt.ScenarioStream(context.Background(), req, nil)
	if err != nil {
		t.Fatalf("stream failed despite a live replica: %v", err)
	}
	if res2.Shard == res.Shard {
		t.Fatalf("answered by the dead shard %s?", res2.Shard)
	}
	if res2.Failovers == 0 {
		t.Fatal("failover not counted")
	}
	if !bytes.Equal(out2.Body, healthy) {
		t.Fatalf("replica stream diverged from owner:\n%s\nvs\n%s", out2.Body, healthy)
	}
}

// streamKiller serves /v1/scenario by emitting `events` valid event
// chunks and then dying: aborting the connection (kill=true, the
// mid-stream SIGKILL shape) or emitting a terminal typed error chunk.
func streamKiller(t *testing.T, events int, kill bool) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentTypeNDJSON)
		w.WriteHeader(http.StatusOK)
		fl := w.(http.Flusher)
		for i := 0; i < events; i++ {
			ev := scenario.StreamEvent{Type: scenario.EvTenantArrive, Phase: i, App: "aes-query"}
			b, _ := json.Marshal(ScenarioStreamEvent{Type: StreamChunkEvent, Event: &ev})
			_, _ = w.Write(append(b, '\n'))
			fl.Flush()
		}
		if kill {
			panic(http.ErrAbortHandler) // connection cut, no terminal chunk
		}
		b, _ := json.Marshal(ScenarioStreamEvent{Type: StreamChunkError, Error: "shard lost its machine"})
		_, _ = w.Write(append(b, '\n'))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRouterScenarioStreamMidStreamDeath: once events were delivered, a
// dying shard must NOT be failed over (a second shard would replay events
// the caller already consumed). The death surfaces as a typed error —
// truncation or a terminal error chunk — and never as a silently short
// body: Body stays nil, so no caller can mistake a partial stream for a
// report.
func TestRouterScenarioStreamMidStreamDeath(t *testing.T) {
	for _, tc := range []struct {
		name string
		kill bool
	}{
		{"connection cut", true},
		{"typed error chunk", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := streamKiller(t, 3, tc.kill)
			rt, err := NewRouter(RouterConfig{Members: []string{ts.URL}, Seed: 1, Backoff: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			delivered := 0
			out, res, err := rt.ScenarioStream(context.Background(), streamSpec(),
				func(scenario.StreamEvent) { delivered++ })
			if err == nil {
				t.Fatal("mid-stream death did not surface as an error")
			}
			if delivered != 3 || out == nil || out.Events != 3 {
				t.Fatalf("delivered %d events (outcome %+v), want 3", delivered, out)
			}
			if out.Body != nil || out.Report != nil {
				t.Fatalf("partial stream produced a body: %s", out.Body)
			}
			if res.Failovers != 0 || rt.Failovers() != 0 {
				t.Fatalf("%d failovers after first byte", res.Failovers)
			}
			if tc.kill {
				if !errors.Is(err, ErrStreamTruncated) {
					t.Fatalf("error %v, want ErrStreamTruncated", err)
				}
			} else {
				var se *StreamError
				if !errors.As(err, &se) {
					t.Fatalf("error %v, want *StreamError", err)
				}
				if se.Shard != ts.URL || !strings.Contains(se.Msg, "lost its machine") {
					t.Fatalf("stream error %+v", se)
				}
			}
		})
	}
}
