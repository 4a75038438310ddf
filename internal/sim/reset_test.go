package sim

import (
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/cache"
	"ironhide/internal/noc"
)

// equivSignature collects every behavior-bearing observable of an
// equivalence run: per-access latencies plus all cache, TLB, mesh, and
// check counters. Two machines are behaviorally identical iff their
// signatures match.
type equivSignature struct {
	lats       []int64
	l1Acc      []int64
	l1Miss     []int64
	tlbAcc     []int64
	tlbMiss    []int64
	l2Acc      []int64
	l2Miss     []int64
	traffic    int64
	violations int64
	blocked    int64
}

func signatureOf(m *Machine, lats []int64) equivSignature {
	sig := equivSignature{
		lats:       lats,
		traffic:    m.Mesh.TotalTraffic(),
		violations: m.RouteViolations(),
		blocked:    m.BlockedAccesses(),
	}
	for _, c := range m.AllCores() {
		l1 := m.L1(c).Stats()
		sig.l1Acc = append(sig.l1Acc, l1.Accesses)
		sig.l1Miss = append(sig.l1Miss, l1.Misses)
		tl := m.TLB(c).Stats()
		sig.tlbAcc = append(sig.tlbAcc, tl.Accesses)
		sig.tlbMiss = append(sig.tlbMiss, tl.Misses)
		l2 := m.L2().Slice(cache.SliceID(c)).Stats()
		sig.l2Acc = append(sig.l2Acc, l2.Accesses)
		sig.l2Miss = append(sig.l2Miss, l2.Misses)
	}
	return sig
}

func compareSignatures(t *testing.T, want, got equivSignature) {
	t.Helper()
	if len(want.lats) != len(got.lats) {
		t.Fatalf("stream lengths differ: fresh %d, reset %d", len(want.lats), len(got.lats))
	}
	for i := range want.lats {
		if want.lats[i] != got.lats[i] {
			t.Fatalf("access %d: fresh latency %d, reset latency %d", i, want.lats[i], got.lats[i])
		}
	}
	for i := range want.l1Acc {
		if want.l1Acc[i] != got.l1Acc[i] || want.l1Miss[i] != got.l1Miss[i] {
			t.Fatalf("core %d L1 stats diverged: fresh %d/%d, reset %d/%d",
				i, want.l1Acc[i], want.l1Miss[i], got.l1Acc[i], got.l1Miss[i])
		}
		if want.tlbAcc[i] != got.tlbAcc[i] || want.tlbMiss[i] != got.tlbMiss[i] {
			t.Fatalf("core %d TLB stats diverged: fresh %d/%d, reset %d/%d",
				i, want.tlbAcc[i], want.tlbMiss[i], got.tlbAcc[i], got.tlbMiss[i])
		}
		if want.l2Acc[i] != got.l2Acc[i] || want.l2Miss[i] != got.l2Miss[i] {
			t.Fatalf("slice %d L2 stats diverged: fresh %d/%d, reset %d/%d",
				i, want.l2Acc[i], want.l2Miss[i], got.l2Acc[i], got.l2Miss[i])
		}
	}
	if want.traffic != got.traffic {
		t.Fatalf("mesh traffic diverged: fresh %d, reset %d", want.traffic, got.traffic)
	}
	if want.violations != got.violations {
		t.Fatalf("route violations diverged: fresh %d, reset %d", want.violations, got.violations)
	}
	if want.blocked != got.blocked {
		t.Fatalf("blocked accesses diverged: fresh %d, reset %d", want.blocked, got.blocked)
	}
}

// Machine.Reset purity: a reset machine must be behaviorally
// indistinguishable from a freshly built one — per-access latencies and
// every counter — even when the machine was first dirtied under a
// *different* configuration. This is what lets the driver's arena recycle
// machines across probes without leaking residue between them (the
// machine-level echo of PR 5's reconfiguration-residue security result).
func TestMachineResetPurity(t *testing.T) {
	for _, dirtySecure := range []int{12, 48} {
		// Reference: fresh machine configured for a 32-core secure cluster.
		fresh, fSec, fIns := buildEquivMachine(t, 32)
		want := signatureOf(fresh, driveEquiv(fresh, fSec, fIns))

		// Candidate: dirty a machine under another split (pages, caches,
		// TLBs, route caches, traffic all populated), reset it, then apply
		// the reference configuration.
		m, err := NewMachine(arch.TileGx72())
		if err != nil {
			t.Fatal(err)
		}
		dSec, dIns := configEquivMachine(t, m, dirtySecure)
		driveEquiv(m, dSec, dIns)
		m.Reset()
		rSec, rIns := configEquivMachine(t, m, 32)
		got := signatureOf(m, driveEquiv(m, rSec, rIns))

		compareSignatures(t, want, got)
	}
}

// Reset purity must also hold across repeated reconfigure/reset cycles on
// one machine — the exact life of a pooled machine serving a binding
// search, where every probe reconfigures the split.
func TestMachineResetPurityAfterReconfigure(t *testing.T) {
	fresh, fSec, fIns := buildEquivMachine(t, 20)
	want := signatureOf(fresh, driveEquiv(fresh, fSec, fIns))

	m, err := NewMachine(arch.TileGx72())
	if err != nil {
		t.Fatal(err)
	}
	for _, secure := range []int{8, 60, 20} {
		m.Reset()
		// Reconfigure mid-life too: apply one split, then immediately
		// re-split before driving, as a probe evaluating a new candidate
		// does.
		split, err := noc.NewSplit(4, m.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.SetSplit(split, true)
		m.Reset()
		sec, ins := configEquivMachine(t, m, secure)
		sig := signatureOf(m, driveEquiv(m, sec, ins))
		if secure == 20 {
			compareSignatures(t, want, sig)
		}
	}
}
