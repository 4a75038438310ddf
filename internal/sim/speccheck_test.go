package sim

import (
	"testing"
	"testing/quick"

	"ironhide/internal/arch"
)

// specMachine builds a machine whose DRAM is split MC0/MC1 secure, with
// the speculative-access check set as given, and one page mapped in each
// domain's own regions.
func specMachine(t *testing.T, armed bool) (m *Machine, secure, insecure arch.Addr) {
	t.Helper()
	m = newTestMachine(t)
	if err := m.Part.AssignDomains(0b0011); err != nil {
		t.Fatal(err)
	}
	m.SetSpecCheck(armed)
	secure = m.NewSpace("enclave", arch.Secure).Alloc("secret", m.Cfg.PageSize).Addr(0)
	insecure = m.NewSpace("os", arch.Insecure).Alloc("shared", m.Cfg.PageSize).Addr(0)
	return m, secure, insecure
}

// blocked issues one access and reports whether the check discarded it.
func blocked(t *testing.T, m *Machine, addr arch.Addr, d arch.Domain) bool {
	t.Helper()
	before := m.BlockedAccesses()
	lat := m.Access(0, addr, false, d, 0)
	if m.BlockedAccesses() == before {
		return false
	}
	if lat != m.Cfg.L1HitLat {
		t.Fatalf("blocked access latency = %d, want %d", lat, m.Cfg.L1HitLat)
	}
	return true
}

func TestSpecCheckerBlocksInsecureToSecure(t *testing.T) {
	m, secure, insecure := specMachine(t, true)
	if !blocked(t, m, secure, arch.Insecure) {
		t.Fatal("insecure->secure allowed, want blocked")
	}
	if blocked(t, m, insecure, arch.Insecure) {
		t.Fatal("insecure->insecure blocked, want allowed")
	}
	if m.BlockedAccesses() != 1 {
		t.Fatalf("BlockedAccesses = %d, want 1", m.BlockedAccesses())
	}
}

// The IPC asymmetry: the secure enclave may access insecure regions (the
// shared IPC buffer lives there) without violating strong isolation.
func TestSpecCheckerAllowsSecureToInsecure(t *testing.T) {
	m, secure, insecure := specMachine(t, true)
	if blocked(t, m, insecure, arch.Secure) {
		t.Fatal("secure->insecure (IPC) blocked, want allowed")
	}
	if blocked(t, m, secure, arch.Secure) {
		t.Fatal("secure->secure blocked, want allowed")
	}
}

func TestSpecCheckerDisabled(t *testing.T) {
	m, secure, _ := specMachine(t, false)
	if blocked(t, m, secure, arch.Insecure) {
		t.Fatal("disarmed check blocked an access")
	}
	// Reset disarms an armed check.
	m.SetSpecCheck(true)
	m.Reset()
	if err := m.Part.AssignDomains(0b0011); err != nil {
		t.Fatal(err)
	}
	buf := m.NewSpace("enclave", arch.Secure).Alloc("secret", m.Cfg.PageSize)
	if blocked(t, m, buf.Addr(0), arch.Insecure) {
		t.Fatal("Reset left the check armed")
	}
}

// Property: for any region ownership, check setting, accessor domain and
// page, an access is discarded iff the check is armed, the accessor is
// insecure, and the page's DRAM region is secure-owned.
func TestSpecCheckerPolicy(t *testing.T) {
	m := newTestMachine(t)
	const pages = 32
	f := func(maskRaw uint8, armed, dRaw bool, pageRaw uint8) bool {
		m.Reset()
		// Map the pages on the shared machine (round-robin over every
		// region), then split ownership: each page's region owner follows
		// the random controller mask.
		buf := m.NewSpace("p", arch.Insecure).Alloc("a", pages*m.Cfg.PageSize)
		mask := uint(maskRaw) % (1 << uint(m.Cfg.MemControllers))
		if m.Part.AssignDomains(mask) != nil {
			m.Part.Shared() // a degenerate mask: every region insecure
		}
		m.SetSpecCheck(armed)
		d := arch.Insecure
		if dRaw {
			d = arch.Secure
		}
		addr := buf.Addr(int(pageRaw) % pages * m.Cfg.PageSize)
		_, region, _, err := m.PageOf(addr)
		if err != nil {
			t.Fatal(err)
		}
		want := armed && d == arch.Insecure && m.Part.OwnerOf(region) == arch.Secure
		return blocked(t, m, addr, d) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
