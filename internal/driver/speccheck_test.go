package driver

import (
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/enclave"
	"ironhide/internal/sim"
)

// TestSpecCheckPerModel: after Configure, an insecure access to a page in
// a secure-owned DRAM region is discarded under the strongly isolating
// models (MI6, IRONHIDE) and goes through under the baselines (Insecure,
// SGX), whose Configure leaves the speculative-access check off. The
// baselines share every region, so the test splits ownership after their
// Configure; the check's setting is what the model left.
func TestSpecCheckPerModel(t *testing.T) {
	wantBlocked := map[string]bool{"Insecure": false, "SGX": false, "MI6": true, "IRONHIDE": true}
	models := Models()
	if len(models) != len(wantBlocked) {
		t.Fatalf("%d models, table covers %d", len(models), len(wantBlocked))
	}
	for _, model := range models {
		want, ok := wantBlocked[model.Name()]
		if !ok {
			t.Fatalf("model %q missing from the table", model.Name())
		}
		m, err := sim.NewMachine(arch.TileGx72())
		if err != nil {
			t.Fatal(err)
		}
		if err := model.Configure(m); err != nil {
			t.Fatalf("%s: %v", model.Name(), err)
		}
		if !m.Part.Isolated() {
			if err := m.Part.AssignDomains(enclave.SecureControllerMask); err != nil {
				t.Fatal(err)
			}
		}
		secret := m.NewSpace("enclave", arch.Secure).Alloc("secret", m.Cfg.PageSize).Addr(0)
		if _, region, _, err := m.PageOf(secret); err != nil || m.Part.OwnerOf(region) != arch.Secure {
			t.Fatalf("%s: secure page not in a secure-owned region (%v)", model.Name(), err)
		}
		insecureCore := arch.CoreID(m.Cfg.Cores() - 1) // in the insecure cluster under IRONHIDE
		before := m.BlockedAccesses()
		m.Access(insecureCore, secret, false, arch.Insecure, 0)
		if got := m.BlockedAccesses() == before+1; got != want {
			t.Errorf("%s: insecure access to a secure region blocked=%v, want %v", model.Name(), got, want)
		}
	}
}
