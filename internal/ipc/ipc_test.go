package ipc

import (
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/core"
	"ironhide/internal/enclave"
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

func TestRingRejectsSecurePlacement(t *testing.T) {
	m := machine(t)
	if _, err := NewRing(m.NewSpace("enclave", arch.Secure), 64, 4096); err == nil {
		t.Fatal("ring allocated in the secure domain")
	}
}

func TestRingRejectsBadCapacity(t *testing.T) {
	m := machine(t)
	space := m.NewSpace("os", arch.Insecure)
	for _, capacity := range []int{0, -64, 100} {
		if _, err := NewRing(space, 64, capacity); err == nil {
			t.Errorf("capacity %d accepted", capacity)
		}
	}
}

func TestSendRecvTraffic(t *testing.T) {
	m := machine(t)
	r, err := NewRing(m.NewSpace("os", arch.Insecure), 64, 4096)
	if err != nil {
		t.Fatal(err)
	}
	gp := m.NewGroup(arch.Insecure, []arch.CoreID{0}, 0)
	gc := m.NewGroup(arch.Secure, []arch.CoreID{1}, 0)
	var sent, received sim.EventBuf
	gp.SetEventBuf(&sent)
	gc.SetEventBuf(&received)

	if err := r.Send(gp.Ctx(0), 256); err != nil {
		t.Fatal(err)
	}
	if err := r.Recv(gc.Ctx(0), 256); err != nil {
		t.Fatal(err)
	}
	// 256B = 4 lines + control line each way.
	if n := countOps(&sent, sim.EvWrite); n != 5 {
		t.Fatalf("sender performed %d writes, want 5", n)
	}
	if n := countOps(&received, sim.EvRead); n != 5 {
		t.Fatalf("receiver performed %d reads, want 5", n)
	}
	if gp.Ctx(0).Cycles() == 0 || gc.Ctx(0).Cycles() == 0 {
		t.Fatal("IPC transfers cost nothing")
	}
}

func TestOversizedMessageRefused(t *testing.T) {
	m := machine(t)
	r, err := NewRing(m.NewSpace("os", arch.Insecure), 64, 1024)
	if err != nil {
		t.Fatal(err)
	}
	g := m.NewGroup(arch.Insecure, []arch.CoreID{0}, 0)
	if err := r.Send(g.Ctx(0), 2048); err == nil {
		t.Fatal("oversized send accepted")
	}
	if err := r.Recv(g.Ctx(0), 0); err == nil {
		t.Fatal("empty recv accepted")
	}
}

func TestRingWrapsAround(t *testing.T) {
	m := machine(t)
	r, err := NewRing(m.NewSpace("os", arch.Insecure), 64, 1024)
	if err != nil {
		t.Fatal(err)
	}
	g := m.NewGroup(arch.Insecure, []arch.CoreID{0}, 0)
	var evb sim.EventBuf
	g.SetEventBuf(&evb)
	for i := 0; i < 10; i++ { // 10 x 512B through a 1 KB ring
		if err := r.Send(g.Ctx(0), 512); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if err := r.Recv(g.Ctx(0), 512); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
	// 8 payload lines plus the control line per message.
	if w, r := countOps(&evb, sim.EvWrite), countOps(&evb, sim.EvRead); w != 10*9 || r != 10*9 {
		t.Fatalf("%d writes, %d reads; want 90 each", w, r)
	}
	// The cursors wrapped: every access stayed in the ring's 16 lines.
	l1 := m.L1(0)
	if got := l1.Occupancy(); got != 1024/64 {
		t.Fatalf("L1 holds %d lines, want the ring's %d", got, 1024/64)
	}
	for off := 0; off < 1024; off += 64 {
		if !l1.Contains(r.Buffer().Addr(off)) {
			t.Fatalf("ring line %d never touched", off/64)
		}
	}
}

// Strong isolation: the ring's pages live in insecure DRAM regions and on
// insecure L2 slices, and the secure side can still access them (the
// hardware check's IPC asymmetry).
func TestRingPlacementAndSecureAccess(t *testing.T) {
	m := machine(t)
	if err := (enclave.MulticoreMI6{}).Configure(m); err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(m.NewSpace("os", arch.Insecure), 64, 8192)
	if err != nil {
		t.Fatal(err)
	}
	buf := r.Buffer()
	for off := 0; off < buf.Size; off += m.Cfg.PageSize {
		d, region, home, err := m.PageOf(buf.Addr(off))
		if err != nil {
			t.Fatal(err)
		}
		if d != arch.Insecure {
			t.Fatal("ring page not owned by the insecure domain")
		}
		if m.Part.OwnerOf(region) != arch.Insecure {
			t.Fatal("ring page in a secure DRAM region")
		}
		if int(home) < 32 {
			t.Fatalf("ring page homed on secure slice %d", home)
		}
	}
	// The enclave reads the ring without being blocked.
	gc := m.NewGroup(arch.Secure, []arch.CoreID{0}, 0)
	if err := r.Recv(gc.Ctx(0), 128); err != nil {
		t.Fatal(err)
	}
	if m.BlockedAccesses() != 0 {
		t.Fatal("secure IPC access was blocked")
	}
}

// Under IRONHIDE the IPC transfer is exactly the traffic allowed to cross
// the cluster boundary; everything else stays contained.
func TestRingCrossClusterUnderIronhideSplit(t *testing.T) {
	m := machine(t)
	if err := core.New(32).Configure(m); err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(m.NewSpace("os", arch.Insecure), 64, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// A secure-cluster core reaches across to the ring.
	gc := m.NewGroup(arch.Secure, []arch.CoreID{0}, 0)
	if err := r.Recv(gc.Ctx(0), 256); err != nil {
		t.Fatal(err)
	}
	if m.RouteViolations() != 0 {
		t.Fatal("IPC crossing recorded as a route violation")
	}
}

// countOps counts the captured events with the given code.
func countOps(evb *sim.EventBuf, code byte) int {
	n := 0
	for _, c := range evb.Codes {
		if c == code {
			n++
		}
	}
	return n
}
