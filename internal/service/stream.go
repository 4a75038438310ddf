// Streaming /v1/scenario: the engine's typed phase events framed as
// NDJSON (default) or SSE (Accept: text/event-stream) chunks, with a
// terminal chunk carrying the full Report. The terminal report is the
// compact encoding of exactly the blocking response body — re-indenting
// it with two spaces and a trailing newline reproduces the blocking body
// byte-for-byte, which the stream and router tests assert.
//
// Failure semantics are split at the first byte. Before any chunk is
// written the response is still a plain JSON status (400/503/504/...) and
// a router may fail the request over to a replica. After the first chunk,
// the status line is spent: any failure — engine error, request deadline,
// serving shard dying — surfaces as a terminal typed error chunk, never a
// silently truncated body.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"ironhide/internal/scenario"
)

// Stream content types.
const (
	ContentTypeNDJSON = "application/x-ndjson"
	ContentTypeSSE    = "text/event-stream"
)

// Stream chunk types.
const (
	// StreamChunkEvent wraps one engine StreamEvent.
	StreamChunkEvent = "event"
	// StreamChunkReport terminates a successful stream with the compact
	// final Report.
	StreamChunkReport = "report"
	// StreamChunkError terminates a failed stream that had already begun.
	StreamChunkError = "error"
)

// ScenarioStreamEvent is one framed chunk of a streamed /v1/scenario
// response: an engine event, the terminal report, or a terminal error.
type ScenarioStreamEvent struct {
	Type string `json:"type"`
	// Event carries the engine emission (Type == "event").
	Event *scenario.StreamEvent `json:"event,omitempty"`
	// Report is the compact final Report (Type == "report"); indenting it
	// two spaces plus a trailing newline is the blocking response body.
	Report json.RawMessage `json:"report,omitempty"`
	// Cache is the X-Ironhide-Cache value the blocking path would have
	// sent as a header (Type == "report"); streamed responses commit their
	// headers before the worst source is known, so it rides here.
	Cache string `json:"cache,omitempty"`
	// Error is the terminal failure (Type == "error").
	Error string `json:"error,omitempty"`
}

// streamFramer writes chunks in the negotiated framing, committing the
// 200 status and stream headers on the first chunk.
type streamFramer struct {
	w     http.ResponseWriter
	fl    http.Flusher
	sse   bool
	wrote int
}

func (f *streamFramer) write(chunk ScenarioStreamEvent) error {
	b, err := json.Marshal(chunk)
	if err != nil {
		return err
	}
	if f.wrote == 0 {
		if f.sse {
			f.w.Header().Set("Content-Type", ContentTypeSSE)
		} else {
			f.w.Header().Set("Content-Type", ContentTypeNDJSON)
		}
		f.w.Header().Set("Cache-Control", "no-store")
		f.w.WriteHeader(http.StatusOK)
	}
	if f.sse {
		if _, err := fmt.Fprintf(f.w, "event: %s\ndata: %s\n\n", chunk.Type, b); err != nil {
			return err
		}
	} else {
		if _, err := f.w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	f.wrote++
	if f.fl != nil {
		f.fl.Flush()
	}
	return nil
}

// streamScenario answers a /v1/scenario request with stream:true. The
// caller must have validated the request and hold an admission slot; the
// slot is released when the engine settles, exactly like the blocking
// path.
func (s *Server) streamScenario(ctx context.Context, w http.ResponseWriter, r *http.Request, spec scenario.Spec) {
	type runResult struct {
		rep *scenario.Report
		src string
		err error
	}
	// Events flow from the engine's single-threaded phase loop into the
	// handler over a channel; the Sink never blocks past the request's
	// lifetime (an abandoned stream drops events while the run finishes in
	// the background and fills the cache, like a timed-out blocking run).
	events := make(chan scenario.StreamEvent, 64)
	res := make(chan runResult, 1)
	go func() {
		defer s.gate.release()
		traceFor, worst := s.sharedTraces(ctx)
		rep, err := scenario.Run(s.cfg.Arch, spec, scenario.Options{
			Workers:  s.cfg.GridWorkers,
			TraceFor: traceFor,
			Sink: func(ev scenario.StreamEvent) {
				select {
				case events <- ev:
				case <-ctx.Done():
				}
			},
		})
		close(events)
		res <- runResult{rep: rep, src: worst(), err: err}
	}()

	fr := &streamFramer{w: w, sse: wantsSSE(r)}
	fr.fl, _ = w.(http.Flusher)
	for events != nil {
		select {
		case ev, ok := <-events:
			if !ok {
				events = nil
				continue
			}
			if err := fr.write(ScenarioStreamEvent{Type: StreamChunkEvent, Event: &ev}); err != nil {
				return // client gone; the run settles in the background
			}
		case <-ctx.Done():
			s.finishStream(fr, w, nil, "", ctx.Err())
			return
		}
	}
	out := <-res
	s.finishStream(fr, w, out.rep, out.src, out.err)
}

// finishStream terminates the stream: errors before the first chunk keep
// the blocking path's status-code semantics (so routers fail over);
// afterwards they become a terminal typed error chunk.
func (s *Server) finishStream(fr *streamFramer, w http.ResponseWriter, rep *scenario.Report, src string, err error) {
	if err == nil {
		var compact []byte
		compact, err = json.Marshal(rep)
		if err == nil {
			_ = fr.write(ScenarioStreamEvent{Type: StreamChunkReport, Report: compact, Cache: src})
			return
		}
	}
	if fr.wrote == 0 {
		s.writeWorkError(w, err)
		return
	}
	_ = fr.write(ScenarioStreamEvent{Type: StreamChunkError, Error: err.Error()})
}

// wantsSSE selects the SSE framing when the client asks for it.
func wantsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), ContentTypeSSE)
}

// ErrStreamTruncated marks a stream that ended without a terminal report
// or error chunk — the connection died mid-stream.
var ErrStreamTruncated = errors.New("service: scenario stream truncated before a terminal chunk")

// StreamError is a terminal error chunk received mid-stream: the serving
// shard began the stream, then failed. It is deliberately not retried or
// failed over by the router — events were already delivered, and a replay
// from another shard would duplicate them.
type StreamError struct {
	// Shard is the member that was streaming (set by the Router).
	Shard string
	// Msg is the terminal chunk's error text.
	Msg string
}

func (e *StreamError) Error() string {
	if e.Shard != "" {
		return fmt.Sprintf("scenario stream from %s failed mid-stream: %s", e.Shard, e.Msg)
	}
	return fmt.Sprintf("scenario stream failed mid-stream: %s", e.Msg)
}

// StreamOutcome is a consumed scenario stream.
type StreamOutcome struct {
	// Report is the parsed terminal report.
	Report *scenario.Report
	// Body is the blocking-response rendering of the terminal report —
	// byte-identical to POST /v1/scenario without streaming.
	Body []byte
	// Cache is the terminal chunk's cache source (the blocking path's
	// X-Ironhide-Cache header).
	Cache string
	// Events counts engine event chunks delivered before the terminal.
	Events int
}

// consumeScenarioStream decodes a 2xx streamed response body (NDJSON
// framing). onEvent, if non-nil, fires per engine event in order.
func consumeScenarioStream(body io.Reader, onEvent func(scenario.StreamEvent)) (*StreamOutcome, error) {
	out := &StreamOutcome{}
	dec := json.NewDecoder(body)
	for {
		var chunk ScenarioStreamEvent
		if err := dec.Decode(&chunk); err != nil {
			return out, fmt.Errorf("%w (after %d events): %v", ErrStreamTruncated, out.Events, err)
		}
		switch chunk.Type {
		case StreamChunkEvent:
			if chunk.Event == nil {
				return out, fmt.Errorf("stream event chunk without event (after %d events)", out.Events)
			}
			out.Events++
			if onEvent != nil {
				onEvent(*chunk.Event)
			}
		case StreamChunkError:
			return out, &StreamError{Msg: chunk.Error}
		case StreamChunkReport:
			var rep scenario.Report
			if err := json.Unmarshal(chunk.Report, &rep); err != nil {
				return out, fmt.Errorf("decode terminal report: %w", err)
			}
			var buf bytes.Buffer
			if err := json.Indent(&buf, chunk.Report, "", "  "); err != nil {
				return out, fmt.Errorf("indent terminal report: %w", err)
			}
			buf.WriteByte('\n')
			out.Report, out.Body, out.Cache = &rep, buf.Bytes(), chunk.Cache
			return out, nil
		default:
			return out, fmt.Errorf("unknown stream chunk type %q", chunk.Type)
		}
	}
}
