package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/scenario"
)

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
