package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/scenario"
)

// FuzzDecodeRequest feeds arbitrary bytes to the request path of all five
// POST simulation endpoints: the one endpoint wrapper's body decoding,
// then the endpoint's own validation. Accepted requests answer from a
// stub instead of running their work, so nothing simulates. A body may be
// rejected, but never with a panic, and only ever with 400 (malformed or
// invalid) or 413 (past the size cap).
func FuzzDecodeRequest(f *testing.F) {
	s := New(Config{Arch: arch.TileGx72()})
	var inflight atomic.Int64
	endpoints := []struct {
		path string
		h    http.HandlerFunc
		seed any
	}{
		{"/v1/search", endpoint(s, &inflight, validateOnly(s.searchPlan)),
			Query{App: "sssp-graph", Model: "IRONHIDE", Scale: 0.1, Seed: 7}},
		{"/v1/run", endpoint(s, &inflight, validateOnly(s.runPlan)),
			Query{App: "sssp-graph", Model: "IRONHIDE", Scale: 0.1, Seed: 9, FixedSecureCores: 16}},
		{"/v1/grid", endpoint(s, &inflight, validateOnly(s.gridPlan)),
			GridRequest{Workers: 2, Cells: []Query{
				{App: "sssp-graph", Model: "Insecure", Scale: 0.1, Seed: 11},
				{App: "sssp-graph", Model: "MI6", Scale: 0.1, Seed: 11},
			}}},
		{"/v1/scenario", endpoint(s, &inflight, validateOnly(s.scenarioPlan)), streamSpec()},
		{"/v1/joint", endpoint(s, &inflight, validateOnly(s.jointPlan)),
			JointRequest{Apps: []string{"aes-query", "sssp-graph"}, Scale: 0.05, Seed: 7, Policy: "interference-aware"}},
	}
	serve := func(h http.HandlerFunc, path string, body []byte) int {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec.Code
	}
	for _, ep := range endpoints {
		body, err := json.Marshal(ep.seed)
		if err != nil {
			f.Fatal(err)
		}
		if code := serve(ep.h, ep.path, body); code != http.StatusOK {
			f.Fatalf("%s seed answered %d, want 200: %s", ep.path, code, body)
		}
		f.Add(body)
		f.Add(append(bytes.Clone(body), "{}"...))
		f.Add(body[:len(body)/2])
	}
	// Out-of-range /v1/joint secure clusters: no insecure core, off the
	// mesh, negative, and a core short for the second tenant.
	for _, cores := range []int{64, 100, -1, 1} {
		f.Add(fmt.Appendf(nil, `{"apps":["aes-query","sssp-graph"],"scale":0.02,"secure_cores":%d}`, cores))
	}
	f.Add([]byte(`{"app":"nope","model":"IRONHIDE","timeout_ms":18446744073710}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ep := range endpoints {
			switch code := serve(ep.h, ep.path, body); code {
			case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			default:
				t.Fatalf("%s answered %d for %q", ep.path, code, body)
			}
		}
	})
}

// validateOnly keeps an endpoint's validation but replaces its work with
// an empty answer under the server's default deadline, so a fuzzed body
// that validates costs nothing to accept.
func validateOnly[R any](prepare func(*R) (plan, error)) func(*R) (plan, error) {
	return func(req *R) (plan, error) {
		_, err := prepare(req)
		return plan{work: func(context.Context) outcome { return outcome{body: struct{}{}} }}, err
	}
}

// FuzzConsumeScenarioStream feeds arbitrary bytes to the client-side NDJSON
// stream parser, which reads bodies from shards that may die or rot
// mid-stream. It may reject them, but it must never panic, must always
// return an outcome (the router reads Events off a failed one), must
// deliver exactly Events events, and may only succeed with a terminal
// report whose body ends in a newline.
func FuzzConsumeScenarioStream(f *testing.F) {
	stream := recordStream(f)
	f.Add(stream)
	for _, n := range []int{0, 1, len(stream) / 2, len(stream) - 2} {
		f.Add(stream[:n])
	}
	flipped := bytes.Clone(stream)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	for _, swap := range [][2]string{
		{`"type":"report"`, `"type":"rep0rt"`},
		{`"type":"event"`, `"type":"error"`},
		{`"report":{`, `"report":[`},
		{"\n", "\n\n{"},
	} {
		f.Add(bytes.Replace(stream, []byte(swap[0]), []byte(swap[1]), 1))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		delivered := 0
		out, err := consumeScenarioStream(bytes.NewReader(b), func(scenario.StreamEvent) { delivered++ })
		if out == nil {
			t.Fatalf("nil outcome (err %v)", err)
		}
		if out.Events != delivered {
			t.Fatalf("outcome counts %d events, callback saw %d", out.Events, delivered)
		}
		if err != nil {
			return
		}
		if out.Report == nil || !bytes.HasSuffix(out.Body, []byte("\n")) {
			t.Fatalf("accepted stream without a terminal report: report %v, body %q", out.Report, out.Body)
		}
	})
}

// recordStream returns a real streamed /v1/scenario response body.
func recordStream(tb testing.TB) []byte {
	req := streamSpec()
	req.Stream = true
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	New(Config{Arch: arch.TileGx72()}).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/scenario", bytes.NewReader(body)))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != ContentTypeNDJSON {
		tb.Fatalf("stream status %d, content type %q: %s", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
	return rec.Body.Bytes()
}

// FuzzParseTraceKey feeds arbitrary strings to the decoder of a peer's
// GET /v1/trace/{key} path and of the store's key names. It must never
// panic, and every key it accepts must re-parse from its String to an
// equal key, or a stored trace would be orphaned under a second identity.
func FuzzParseTraceKey(f *testing.F) {
	for _, s := range []string{
		"aes-query@0.1#42", "weird@app#name@0.001#-7", "x@5e-324#0",
		"a@NaN#1", "a@+Inf#1", "a@0#1", "a@0x1p-2#+3", "@1#5", "a@1#",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		k, err := ParseTraceKey(s)
		if err != nil {
			return
		}
		again, err := ParseTraceKey(k.String())
		if err != nil {
			t.Fatalf("%q parsed as %+v, whose String %q is rejected: %v", s, k, k.String(), err)
		}
		if again != k {
			t.Fatalf("%q parsed as %+v, re-parsed from %q as %+v", s, k, k.String(), again)
		}
	})
}
