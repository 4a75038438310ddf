package sim

import (
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/cache"
	"ironhide/internal/noc"
)

// equivSignature collects every behavior-bearing observable of an
// equivalence run: per-access latencies, cache counters, TLB residency by
// owner, the two tracked tenants' link conflicts, and the check counters.
// Two machines are behaviorally identical iff their signatures match.
type equivSignature struct {
	lats       []int64
	l1Acc      []int64
	l1Miss     []int64
	tlbSec     []int
	tlbIns     []int
	l2Acc      []int64
	l2Miss     []int64
	conflicts  [2]int64
	violations int64
	blocked    int64
}

func signatureOf(m *Machine, lats []int64) equivSignature {
	sig := equivSignature{
		lats:       lats,
		conflicts:  [2]int64{m.TenantConflicts(1), m.TenantConflicts(2)},
		violations: m.RouteViolations(),
		blocked:    m.BlockedAccesses(),
	}
	for _, c := range m.AllCores() {
		l1 := m.L1(c).Stats()
		sig.l1Acc = append(sig.l1Acc, l1.Accesses)
		sig.l1Miss = append(sig.l1Miss, l1.Misses)
		sig.tlbSec = append(sig.tlbSec, m.TLB(c).OccupancyByOwner(arch.Secure))
		sig.tlbIns = append(sig.tlbIns, m.TLB(c).OccupancyByOwner(arch.Insecure))
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
		if want.tlbSec[i] != got.tlbSec[i] || want.tlbIns[i] != got.tlbIns[i] {
			t.Fatalf("core %d TLB residency diverged: fresh %d/%d, reset %d/%d",
				i, want.tlbSec[i], want.tlbIns[i], got.tlbSec[i], got.tlbIns[i])
		}
		if want.l2Acc[i] != got.l2Acc[i] || want.l2Miss[i] != got.l2Miss[i] {
			t.Fatalf("slice %d L2 stats diverged: fresh %d/%d, reset %d/%d",
				i, want.l2Acc[i], want.l2Miss[i], got.l2Acc[i], got.l2Miss[i])
		}
	}
	if want.conflicts != got.conflicts {
		t.Fatalf("tenant link conflicts diverged: fresh %v, reset %v", want.conflicts, got.conflicts)
	}
	if want.violations != got.violations {
		t.Fatalf("route violations diverged: fresh %d, reset %d", want.violations, got.violations)
	}
	if want.blocked != got.blocked {
		t.Fatalf("blocked accesses diverged: fresh %d, reset %d", want.blocked, got.blocked)
	}
}

// trackTwoTenants splits the cores into two co-tenants, even and odd, so
// an equivalence run stamps mesh links and charges link conflicts.
func trackTwoTenants(m *Machine) {
	var even, odd []arch.CoreID
	for _, c := range m.AllCores() {
		if c%2 == 0 {
			even = append(even, c)
		} else {
			odd = append(odd, c)
		}
	}
	m.SetTenantCores(1, even)
	m.SetTenantCores(2, odd)
}

// Machine.Reset purity: a reset machine must be behaviorally
// indistinguishable from a freshly built one — per-access latencies and
// every counter — even when the machine was first dirtied under a
// *different* configuration. Both runs track two co-tenants, so a link
// owner stamp that survived Reset would change the conflicts. This is what lets the driver's arena recycle
// machines across probes without leaking residue between them (the
// machine-level echo of PR 5's reconfiguration-residue security result).
func TestMachineResetPurity(t *testing.T) {
	for _, dirtySecure := range []int{12, 48} {
		// Reference: fresh machine configured for a 32-core secure cluster.
		fresh, fSec, fIns := buildEquivMachine(t, 32)
		trackTwoTenants(fresh)
		want := signatureOf(fresh, driveEquiv(fresh, fSec, fIns))

		// Candidate: dirty a machine under another split (pages, caches,
		// TLBs, route caches, link stamps all populated), reset it, then
		// apply the reference configuration.
		m, err := NewMachine(arch.TileGx72())
		if err != nil {
			t.Fatal(err)
		}
		dSec, dIns := configEquivMachine(t, m, dirtySecure)
		trackTwoTenants(m)
		driveEquiv(m, dSec, dIns)
		m.Reset()
		rSec, rIns := configEquivMachine(t, m, 32)
		trackTwoTenants(m)
		got := signatureOf(m, driveEquiv(m, rSec, rIns))

		compareSignatures(t, want, got)
	}
}

// Reset purity must also hold across repeated reconfigure/reset cycles on
// one machine — the exact life of a recycled machine serving a binding
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
