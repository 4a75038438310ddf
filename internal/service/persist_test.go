package service

import (
	"math"
	"testing"
)

// TraceKey.String and ParseTraceKey must round-trip bit-for-bit: these
// strings are the persistent identities in the trace store, so a restart
// that re-derives them differently would orphan every stored entry.
func TestTraceKeyRoundTrip(t *testing.T) {
	keys := []TraceKey{
		{App: "aes-query", Scale: 1, Seed: 0},
		{App: "aes-query", Scale: 0.1, Seed: 42},
		{App: "<AES, QUERY>", Scale: 1.0 / 3.0, Seed: -7},
		{App: "weird@app#name", Scale: 1e-3, Seed: math.MaxInt64},
		{App: "x", Scale: math.SmallestNonzeroFloat64, Seed: math.MinInt64},
	}
	for _, k := range keys {
		got, err := ParseTraceKey(k.String())
		if err != nil {
			t.Fatalf("parse %q: %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("round trip %q: got %+v, want %+v", k.String(), got, k)
		}
	}
}

func TestParseTraceKeyRejects(t *testing.T) {
	for _, s := range []string{
		"",
		"no-separators",
		"app#5",      // no scale
		"@1#5",       // empty app
		"a@x#5",      // bad scale
		"a@1#x",      // bad seed
		"a@1#",       // empty seed
		"a@1.5#5abc", // trailing junk in seed
		"a@NaN#1",    // NaN never equals itself after a round trip
		"a@nan#1",
		"a@Inf#1", // non-finite scales
		"a@+Inf#1",
		"a@-Inf#1",
		"a@infinity#1",
		"a@0#1", // non-positive scales
		"a@-0#1",
		"a@-0.5#1",
		"a@1e-400#1", // underflows to zero
	} {
		if k, err := ParseTraceKey(s); err == nil {
			t.Fatalf("ParseTraceKey(%q) accepted as %+v", s, k)
		}
	}
}
