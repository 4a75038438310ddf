package driver

import (
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/core"
	"ironhide/internal/sim"
)

// TestAuthorityDeterministicAdmission: a seeded authority derives the
// same keypair every time, so admission into a kernel built from an
// equally seeded authority succeeds, while a kernel trusting a different
// authority refuses the certificate.
func TestAuthorityDeterministicAdmission(t *testing.T) {
	app := tinyApp()
	a1, err := NewAuthority(5)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewAuthority(5)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-admission between equally seeded authorities proves the key
	// derivation is deterministic.
	k := a1.NewKernel()
	if err := a2.Admit(k, app); err != nil {
		t.Fatalf("equally seeded authority refused: %v", err)
	}

	stranger, err := NewAuthority(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := stranger.Admit(a1.NewKernel(), app); err == nil {
		t.Fatal("a differently seeded authority must fail attestation")
	}

	entropy, err := NewAuthority(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := entropy.Admit(entropy.NewKernel(), app); err != nil {
		t.Fatalf("entropy-backed authority: %v", err)
	}
}

// TestInitTenantCoResidency: admitting several applications onto one
// shared machine maps each tenant's pages in its own domain, so a later
// cluster resize re-homes a footprint proportional to real co-residency.
func TestInitTenantCoResidency(t *testing.T) {
	cfg := arch.TileGx72()
	m, err := sim.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ih := core.New(cfg.Cores() / 2)
	if err := ih.Configure(m); err != nil {
		t.Fatal(err)
	}

	if err := InitTenant(m, tinyApp()); err != nil {
		t.Fatal(err)
	}
	sec1, ins1 := m.PageCount(arch.Secure), m.PageCount(arch.Insecure)
	if sec1 == 0 || ins1 == 0 {
		t.Fatalf("first tenant mapped (sec=%d, ins=%d) pages; both domains need footprints", sec1, ins1)
	}

	if err := InitTenant(m, tinyApp()); err != nil {
		t.Fatal(err)
	}
	if m.PageCount(arch.Secure) <= sec1 || m.PageCount(arch.Insecure) <= ins1 {
		t.Fatal("second tenant added no pages; co-residency must accumulate footprints")
	}

	// A resize must now find pages to re-home and purge the cores that
	// change domains.
	rr, err := ih.Reconfigure(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rr.CoresMoved == 0 || rr.Cycles <= 0 {
		t.Fatalf("resize over a populated machine: moved %d cores, %d cycles", rr.CoresMoved, rr.Cycles)
	}

	bad := tinyApp()
	bad.Rounds = 0
	if err := InitTenant(m, bad); err == nil {
		t.Fatal("ill-formed tenant must be rejected")
	}
}

// TestRetiredTenantNotRehomed: a departed tenant's pages, once retired,
// must not be re-homed (or charged) by later dynamic isolation events —
// resizes move only the resident footprint. Two identically built
// machines isolate the effect: same allocation sequence, one retires the
// second tenant before the resize.
func TestRetiredTenantNotRehomed(t *testing.T) {
	cfg := arch.TileGx72()
	build := func() (*sim.Machine, *core.IronHide, uint64, uint64) {
		t.Helper()
		m, err := sim.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ih := core.New(cfg.Cores() / 2)
		if err := ih.Configure(m); err != nil {
			t.Fatal(err)
		}
		// Two tenants with footprints large enough to home across the
		// whole secure slice set (so a shrink must re-home some of each).
		m.NewSpace("tenant1", arch.Secure).Alloc("data", 2<<20)
		m.NewSpace("tenant1-os", arch.Insecure).Alloc("data", 2<<20)
		lo := uint64(m.TotalPages())
		m.NewSpace("tenant2", arch.Secure).Alloc("data", 2<<20)
		m.NewSpace("tenant2-os", arch.Insecure).Alloc("data", 2<<20)
		return m, ih, lo, uint64(m.TotalPages())
	}

	live, liveIH, _, _ := build()
	retired, retiredIH, lo, hi := build()
	before := retired.PageCount(arch.Secure) + retired.PageCount(arch.Insecure)
	retired.RetirePages(lo, hi)
	after := retired.PageCount(arch.Secure) + retired.PageCount(arch.Insecure)
	if wantGone := int(hi - lo); before-after != wantGone {
		t.Fatalf("retirement removed %d pages, want %d", before-after, wantGone)
	}
	if _, _, _, err := retired.PageOf(arch.Addr(lo * uint64(cfg.PageSize))); err == nil {
		t.Fatal("a retired page must read as unmapped")
	}

	rrLive, err := liveIH.Reconfigure(live, 16)
	if err != nil {
		t.Fatal(err)
	}
	rrRetired, err := retiredIH.Reconfigure(retired, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rrRetired.PagesMoved >= rrLive.PagesMoved {
		t.Fatalf("resize re-homed %d pages after retirement vs %d with both tenants live; ghost footprints must not be moved",
			rrRetired.PagesMoved, rrLive.PagesMoved)
	}
	if rrRetired.PagesMoved == 0 {
		t.Fatal("the resident tenant's pages must still be re-homed")
	}
}
