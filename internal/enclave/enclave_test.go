package enclave

import (
	"testing"

	"ironhide/internal/arch"
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

func TestModelProperties(t *testing.T) {
	cases := []struct {
		m        Model
		name     string
		strong   bool
		temporal bool
	}{
		{Insecure{}, "Insecure", false, false},
		{SGXLike{}, "SGX", false, true},
		{MulticoreMI6{}, "MI6", true, true},
	}
	for _, c := range cases {
		if c.m.Name() != c.name || c.m.StrongIsolation() != c.strong || c.m.Temporal() != c.temporal {
			t.Errorf("%s properties wrong", c.name)
		}
	}
}

func TestInsecureConfigureSharesEverything(t *testing.T) {
	m := machine(t)
	if err := (Insecure{}).Configure(m); err != nil {
		t.Fatal(err)
	}
	if m.Part.Isolated() {
		t.Fatal("insecure baseline partitioned the memory system")
	}
	if m.Spec.Enabled() {
		t.Fatal("insecure baseline armed the hardware check")
	}
	if len(m.Slices(arch.Secure)) != 64 || len(m.Slices(arch.Insecure)) != 64 {
		t.Fatal("insecure baseline restricted slice sets")
	}
	if got := (Insecure{}).EnterSecure(m) + (Insecure{}).ExitSecure(m); got != 0 {
		t.Fatalf("insecure crossings cost %d cycles", got)
	}
}

func TestSGXCrossingCost(t *testing.T) {
	m := machine(t)
	if err := (SGXLike{}).Configure(m); err != nil {
		t.Fatal(err)
	}
	want := m.Cfg.SGXEntryExitLat + m.Cfg.PipelineFlushLat
	if got := (SGXLike{}).EnterSecure(m); got != want {
		t.Fatalf("ECALL cost = %d, want %d", got, want)
	}
	if got := (SGXLike{}).ExitSecure(m); got != want {
		t.Fatalf("OCALL cost = %d, want %d", got, want)
	}
	// SGX does NOT purge: private state survives the crossing.
	buf := m.NewSpace("p", arch.Secure).Alloc("a", 4096)
	m.Access(0, buf.Addr(0), false, arch.Secure, 0)
	(SGXLike{}).ExitSecure(m)
	if !m.L1(0).Contains(buf.Addr(0)) {
		t.Fatal("SGX crossing purged the L1; it must not")
	}
}

func TestMI6ConfigurePartitions(t *testing.T) {
	m := machine(t)
	if err := (MulticoreMI6{}).Configure(m); err != nil {
		t.Fatal(err)
	}
	if !m.Part.Isolated() {
		t.Fatal("MI6 left the memory system shared")
	}
	if !m.Spec.Enabled() {
		t.Fatal("MI6 left the hardware check off")
	}
	sec, ins := m.Slices(arch.Secure), m.Slices(arch.Insecure)
	if len(sec) != 32 || len(ins) != 32 {
		t.Fatalf("slice split %d/%d, want 32/32", len(sec), len(ins))
	}
	seen := map[int]bool{}
	for _, s := range sec {
		seen[int(s)] = true
	}
	for _, s := range ins {
		if seen[int(s)] {
			t.Fatal("slice assigned to both domains")
		}
	}
	// Rehoming is only defined under local homing.
	if _, err := m.RehomeDomainPages(arch.Secure); err != nil {
		t.Fatalf("MI6 must use local homing: %v", err)
	}
}

func TestMI6PurgeOnEveryCrossing(t *testing.T) {
	m := machine(t)
	mi6 := MulticoreMI6{}
	if err := mi6.Configure(m); err != nil {
		t.Fatal(err)
	}
	buf := m.NewSpace("enclave", arch.Secure).Alloc("a", 64*1024)
	for off := 0; off < buf.Size; off += m.Cfg.LineSize {
		m.Access(0, buf.Addr(off), true, arch.Secure, 0)
	}
	cost := mi6.ExitSecure(m)
	if cost <= 0 {
		t.Fatal("MI6 exit purge cost nothing")
	}
	// Purge completeness: no secure state survives in any private resource.
	for c := arch.CoreID(0); int(c) < m.Cfg.Cores(); c++ {
		if m.L1(c).OccupancyByOwner(arch.Secure) != 0 {
			t.Fatalf("core %d L1 retains secure lines after exit", c)
		}
		if m.TLB(c).OccupancyByOwner(arch.Secure) != 0 {
			t.Fatalf("core %d TLB retains secure translations after exit", c)
		}
	}
	for _, id := range m.AllMCs() {
		if m.MC(id).QueueOccupancy() != 0 {
			t.Fatal("controller queues survived the purge")
		}
	}
}

// Calibration check: the MI6 per-crossing purge should land near the
// paper's measured ~0.19 ms per interaction event.
func TestMI6PurgeCostNearPaper(t *testing.T) {
	m := machine(t)
	mi6 := MulticoreMI6{}
	if err := mi6.Configure(m); err != nil {
		t.Fatal(err)
	}
	cost := mi6.EnterSecure(m)
	ms := m.Cfg.CyclesToDuration(cost).Seconds() * 1e3
	if ms < 0.10 || ms > 0.30 {
		t.Fatalf("purge = %.3f ms, want ~0.19 ms (0.10..0.30)", ms)
	}
}

func TestSecureControllerMaskMatchesPaper(t *testing.T) {
	if SecureControllerMask != 0b0011 {
		t.Fatal("the paper dedicates MC0 and MC1 (pos=0b0011) to the secure cluster")
	}
}
