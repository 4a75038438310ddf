package core

import (
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/enclave"
	"ironhide/internal/noc"
	"ironhide/internal/sim"
)

func machine(t *testing.T) *sim.Machine {
	t.Helper()
	m, err := sim.NewMachine(arch.TileGx72())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// IRONHIDE implements the same model interface as the baselines, and
// places and moves its own cluster boundary.
var _ enclave.Spatial = (*IronHide)(nil)

func TestProperties(t *testing.T) {
	ih := New(32)
	if ih.Name() != "IRONHIDE" || !ih.StrongIsolation() || ih.Temporal() {
		t.Fatal("model properties wrong")
	}
}

func TestConfigureFormsClusters(t *testing.T) {
	m := machine(t)
	ih := New(32)
	if err := ih.Configure(m); err != nil {
		t.Fatal(err)
	}
	if got := m.Split().SecureCores; got != 32 {
		t.Fatalf("split = %d secure cores, want 32", got)
	}
	if !m.Part.Isolated() {
		t.Fatal("memory system left shared")
	}
	if len(m.Slices(arch.Secure)) != 32 || len(m.Slices(arch.Insecure)) != 32 {
		t.Fatal("slice sets do not match the split")
	}
	// Slice i belongs to the cluster of core i.
	for _, s := range m.Slices(arch.Secure) {
		if int(s) >= 32 {
			t.Fatalf("secure slice %d belongs to an insecure tile", s)
		}
	}
}

func TestConfigureRejectsEmptyCluster(t *testing.T) {
	for _, n := range []int{0, 64, -1, 65} {
		if err := New(n).Configure(machine(t)); err == nil {
			t.Errorf("secure=%d accepted", n)
		}
	}
}

func TestInteractionsAreFree(t *testing.T) {
	m := machine(t)
	ih := New(32)
	if err := ih.Configure(m); err != nil {
		t.Fatal(err)
	}
	if ih.EnterSecure(m)+ih.ExitSecure(m) != 0 {
		t.Fatal("pinned interactions must not pay an enclave-crossing protocol")
	}
	// And they must not purge anything.
	buf := m.NewSpace("enclave", arch.Secure).Alloc("a", 4096)
	m.Access(0, buf.Addr(0), false, arch.Secure, 0)
	ih.EnterSecure(m)
	ih.ExitSecure(m)
	if !m.L1(0).Contains(buf.Addr(0)) {
		t.Fatal("interaction purged private state")
	}
}

func TestReconfigureMovesCoresAndPages(t *testing.T) {
	m := machine(t)
	ih := New(32)
	if err := ih.Configure(m); err != nil {
		t.Fatal(err)
	}
	// Allocate enough secure data that some pages live on slices 16..31.
	sspace := m.NewSpace("enclave", arch.Secure)
	sbuf := sspace.Alloc("data", 64*m.Cfg.PageSize)
	// Warm a to-be-moved core so the flush is observable.
	m.Access(40, sbuf.Addr(0), false, arch.Secure, 0)

	res, err := ih.Reconfigure(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.From != 32 || res.To != 16 || res.CoresMoved != 16 {
		t.Fatalf("reconfig = %+v", res)
	}
	if res.PagesMoved == 0 || res.Cycles <= 0 {
		t.Fatalf("reconfig did no work: %+v", res)
	}
	if m.Split().SecureCores != 16 {
		t.Fatal("split not installed")
	}
	// Every secure page now lives on a secure slice.
	for off := 0; off < sbuf.Size; off += m.Cfg.PageSize {
		_, _, home, err := m.PageOf(sbuf.Addr(off))
		if err != nil {
			t.Fatal(err)
		}
		if int(home) >= 16 {
			t.Fatalf("secure page still homed on slice %d after shrink to 16", home)
		}
	}
	// Moved cores' private state was flushed.
	for c := 16; c < 32; c++ {
		if m.L1(arch.CoreID(c)).Occupancy() != 0 {
			t.Fatalf("moved core %d retains L1 state", c)
		}
	}
}

func TestReconfigureNoOp(t *testing.T) {
	m := machine(t)
	ih := New(32)
	if err := ih.Configure(m); err != nil {
		t.Fatal(err)
	}
	res, err := ih.Reconfigure(m, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 0 || res.CoresMoved != 0 || res.PagesMoved != 0 {
		t.Fatalf("no-op reconfiguration did work: %+v", res)
	}
}

func TestReconfigureRejectsEmptyCluster(t *testing.T) {
	m := machine(t)
	ih := New(32)
	if err := ih.Configure(m); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 64, 70} {
		if _, err := ih.Reconfigure(m, n); err == nil {
			t.Errorf("reconfigure to %d accepted", n)
		}
	}
}

// Strong isolation survives reconfiguration: insecure pages never end up
// on secure slices and vice versa, for any target size.
func TestReconfigurePreservesPartition(t *testing.T) {
	for _, target := range []int{2, 8, 16, 48, 62} {
		m := machine(t)
		ih := New(32)
		if err := ih.Configure(m); err != nil {
			t.Fatal(err)
		}
		sb := m.NewSpace("enclave", arch.Secure).Alloc("s", 32*m.Cfg.PageSize)
		ib := m.NewSpace("ordinary", arch.Insecure).Alloc("i", 32*m.Cfg.PageSize)
		if _, err := ih.Reconfigure(m, target); err != nil {
			t.Fatal(err)
		}
		split := m.Split()
		for off := 0; off < sb.Size; off += m.Cfg.PageSize {
			_, _, home, _ := m.PageOf(sb.Addr(off))
			if split.ClusterOf(arch.CoreID(home)) != noc.SecureCluster {
				t.Fatalf("target %d: secure page on insecure slice %d", target, home)
			}
		}
		for off := 0; off < ib.Size; off += m.Cfg.PageSize {
			_, _, home, _ := m.PageOf(ib.Addr(off))
			if split.ClusterOf(arch.CoreID(home)) != noc.InsecureCluster {
				t.Fatalf("target %d: insecure page on secure slice %d", target, home)
			}
		}
	}
}

// Calibration: a realistic application footprint (a few thousand pages)
// re-homed during reconfiguration should land near the paper's ~15 ms
// one-time overhead.
func TestReconfigureCostNearPaper(t *testing.T) {
	m := machine(t)
	ih := New(32)
	if err := ih.Configure(m); err != nil {
		t.Fatal(err)
	}
	m.NewSpace("enclave", arch.Secure).Alloc("data", 8<<20)    // 8 MB
	m.NewSpace("ordinary", arch.Insecure).Alloc("data", 8<<20) // 8 MB
	res, err := ih.Reconfigure(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	ms := m.Cfg.CyclesToDuration(res.Cycles).Seconds() * 1e3
	if ms < 2 || ms > 40 {
		t.Fatalf("reconfiguration = %.2f ms, want the paper's ~15 ms order (2..40)", ms)
	}
}

func TestContextSwitchSecurePurgesClusterOnly(t *testing.T) {
	m := machine(t)
	ih := New(16)
	if err := ih.Configure(m); err != nil {
		t.Fatal(err)
	}
	sb := m.NewSpace("enclave", arch.Secure).Alloc("s", 4096)
	ib := m.NewSpace("ordinary", arch.Insecure).Alloc("i", 4096)
	m.Access(0, sb.Addr(0), false, arch.Secure, 0)    // secure cluster core
	m.Access(40, ib.Addr(0), false, arch.Insecure, 0) // insecure cluster core
	cost := ih.ContextSwitchSecure(m)
	if cost <= 0 {
		t.Fatal("context switch cost nothing")
	}
	if m.L1(0).Occupancy() != 0 {
		t.Fatal("secure cluster core not purged")
	}
	if m.L1(40).Occupancy() == 0 {
		t.Fatal("insecure cluster core was purged; it must not be")
	}
}
