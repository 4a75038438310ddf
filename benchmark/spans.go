package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the
// call. Spans of one operation share op; parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is the work the call did, where a layer metric is per unit of
	// work (probes of a search, simulated accesses of a replay, bytes of
	// an encoding).
	N int64 `json:"n,omitempty"`
}

// tracer keeps spans and counts in memory; they are written out only when
// the run ends, so recording costs a clock read and an append.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string][]float64{}}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id, recording n units of work.
func (t *tracer) end(id int, n int64) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].N = n
}

// do records fn as span name under parent. A nil tracer just calls fn:
// set-up computes its reference answers through the same direct calls
// the traced run times.
func (t *tracer) do(name string, parent, op int, fn func() (int64, error)) error {
	if t == nil {
		_, err := fn()
		return err
	}
	id := t.begin(name, parent, op)
	n, err := fn()
	t.end(id, n)
	return err
}

// spanCount reports how many spans of the name were recorded.
func (t *tracer) spanCount(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// add records a span whose interval was measured elsewhere (the scenario
// engine's phase segments are cut from event arrival times).
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// count records one sample of a per-layer count.
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] = append(t.counts[name], v)
}

// spanStats is the per-name view the layer metrics are read from.
type spanStats struct {
	self  map[string][]float64 // self time in ns, per span
	perN  map[string][]float64 // self ns per unit of work
	n     map[string][]float64 // units of work
	byID  map[int]span
	kids  map[int][]int
	names map[string][]int
}

func (t *tracer) stats() spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := spanStats{
		self: map[string][]float64{}, perN: map[string][]float64{},
		n: map[string][]float64{}, byID: map[int]span{}, kids: map[int][]int{}, names: map[string][]int{},
	}
	for _, s := range t.spans {
		st.byID[s.ID] = s
		st.names[s.Name] = append(st.names[s.Name], s.ID)
		if s.Parent != 0 {
			st.kids[s.Parent] = append(st.kids[s.Parent], s.ID)
		}
	}
	for _, s := range t.spans {
		var children []interval
		for _, k := range st.kids[s.ID] {
			c := st.byID[k]
			children = append(children, interval{c.Start, c.End})
		}
		self := float64(selfTime(interval{s.Start, s.End}, children))
		st.self[s.Name] = append(st.self[s.Name], self)
		if s.N > 0 {
			st.n[s.Name] = append(st.n[s.Name], float64(s.N))
			st.perN[s.Name] = append(st.perN[s.Name], self/float64(s.N))
		}
	}
	return st
}

// childWork sums the durations of span id's children: the sequential
// work a parallel fan-out packed into the parent's wall time.
func (st spanStats) childWork(id int) float64 {
	var sum float64
	for _, k := range st.kids[id] {
		c := st.byID[k]
		sum += float64(c.End - c.Start)
	}
	return sum
}

// write saves every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	doc := struct {
		Spans  []span               `json:"spans"`
		Counts map[string][]float64 `json:"counts"`
	}{t.spans, t.counts}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
