package sim

import (
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/cache"
	"ironhide/internal/noc"
)

func newTestMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := NewMachine(arch.TileGx72())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pin the whole address space onto slice 0 so latencies are predictable.
func pinToSlice0(m *Machine) {
	lh := cache.NewLocalHome()
	m.SetHomePolicy(arch.Insecure, lh)
	m.SetSlices(arch.Insecure, []cache.SliceID{0})
}

func TestAccessLatencyL1Hit(t *testing.T) {
	m := newTestMachine(t)
	pinToSlice0(m)
	buf := m.NewSpace("p", arch.Insecure).Alloc("a", 4096)
	m.Access(0, buf.Addr(0), false, arch.Insecure, 0)
	got := m.Access(0, buf.Addr(0), false, arch.Insecure, 100)
	if got != m.Cfg.L1HitLat {
		t.Fatalf("L1 hit latency = %d, want %d", got, m.Cfg.L1HitLat)
	}
}

func TestAccessLatencyL2Hit(t *testing.T) {
	m := newTestMachine(t)
	pinToSlice0(m)
	buf := m.NewSpace("p", arch.Insecure).Alloc("a", 4096)
	// Core 0 installs the line in slice 0; core 1 then hits in L2.
	m.Access(0, buf.Addr(0), false, arch.Insecure, 0)
	got := m.Access(1, buf.Addr(0), false, arch.Insecure, 100)
	// TLB walk + L1 lookup + round trip (1 hop each way) + L2 hit.
	oneHop := m.Cfg.RouterLat + m.Cfg.HopLat
	want := m.Cfg.PageWalkLat + m.Cfg.L1HitLat + 2*oneHop + m.Cfg.L2HitLat
	if got != want {
		t.Fatalf("L2 hit latency = %d, want %d", got, want)
	}
}

func TestAccessLatencyDRAM(t *testing.T) {
	m := newTestMachine(t)
	pinToSlice0(m)
	buf := m.NewSpace("p", arch.Insecure).Alloc("a", 4096)
	got := m.Access(0, buf.Addr(0), false, arch.Insecure, 0)
	local := m.Mesh.Latency(noc.Path(arch.Coord{X: 0, Y: 0}, arch.Coord{X: 0, Y: 0}, noc.XY))
	// Page 0 lives in region 0 -> MC0 attached at (2,0).
	mcPath := m.Mesh.Latency(noc.Path(arch.Coord{X: 0, Y: 0}, arch.Coord{X: 2, Y: 0}, noc.XY))
	edge := mcPath + 1*m.Cfg.HopLat // attach == proxy: one off-chip hop
	want := m.Cfg.PageWalkLat + m.Cfg.L1HitLat + 2*local + m.Cfg.L2HitLat +
		2*edge + m.Cfg.MCServiceLat + m.Cfg.DRAMLat
	if got != want {
		t.Fatalf("DRAM access latency = %d, want %d", got, want)
	}
}

func TestAccessPanicsOnUnmapped(t *testing.T) {
	m := newTestMachine(t)
	defer func() {
		if recover() == nil {
			t.Fatal("unmapped access did not panic")
		}
	}()
	m.Access(0, 0xFFFFFF, false, arch.Insecure, 0)
}

func TestSpecCheckBlocksCrossDomain(t *testing.T) {
	m := newTestMachine(t)
	if err := m.Part.AssignDomains(0b0011); err != nil {
		t.Fatal(err)
	}
	m.SetSpecCheck(true)
	sb := m.NewSpace("enclave", arch.Secure).Alloc("secret", 4096)
	// Insecure access to a secure page is discarded cheaply.
	lat := m.Access(0, sb.Addr(0), false, arch.Insecure, 0)
	if lat != m.Cfg.L1HitLat {
		t.Fatalf("blocked access latency = %d, want %d", lat, m.Cfg.L1HitLat)
	}
	if m.BlockedAccesses() != 1 {
		t.Fatalf("BlockedAccesses = %d, want 1", m.BlockedAccesses())
	}
	// The discarded access must leave no microarchitecture state behind.
	if m.L1(0).Contains(sb.Addr(0)) {
		t.Fatal("blocked access installed an L1 line")
	}
	// Secure access to its own page proceeds.
	if lat := m.Access(0, sb.Addr(0), false, arch.Secure, 0); lat <= m.Cfg.L1HitLat {
		t.Fatalf("secure access latency = %d, unexpectedly cheap", lat)
	}
}

func TestAllocPlacement(t *testing.T) {
	m := newTestMachine(t)
	if err := m.Part.AssignDomains(0b0011); err != nil {
		t.Fatal(err)
	}
	secSlices := []cache.SliceID{0, 1, 2, 3}
	m.SetHomePolicy(arch.Secure, cache.NewLocalHome())
	m.SetSlices(arch.Secure, secSlices)
	buf := m.NewSpace("enclave", arch.Secure).Alloc("data", 8*4096)
	for off := 0; off < buf.Size; off += m.Cfg.PageSize {
		d, region, home, err := m.PageOf(buf.Addr(off))
		if err != nil {
			t.Fatal(err)
		}
		if d != arch.Secure {
			t.Fatalf("page at %#x owned by %v", buf.Addr(off), d)
		}
		if owner := m.Part.OwnerOf(region); owner != arch.Secure {
			t.Fatalf("secure page in region %d owned by %v", region, owner)
		}
		if home > 3 {
			t.Fatalf("secure page homed on slice %d outside its set", home)
		}
	}
	if got := m.PageCount(arch.Secure); got != 8 {
		t.Fatalf("PageCount = %d, want 8", got)
	}
}

func TestBufferBounds(t *testing.T) {
	m := newTestMachine(t)
	buf := m.NewSpace("p", arch.Insecure).Alloc("a", 100) // rounds to one page
	if buf.Size != m.Cfg.PageSize {
		t.Fatalf("size = %d, want one page", buf.Size)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Addr did not panic")
		}
	}()
	buf.Addr(buf.Size)
}

func TestPurgeCorePrivateCostAndColdness(t *testing.T) {
	m := newTestMachine(t)
	pinToSlice0(m)
	buf := m.NewSpace("p", arch.Insecure).Alloc("a", 64*1024)
	for off := 0; off < buf.Size; off += m.Cfg.LineSize {
		m.Access(0, buf.Addr(off), true, arch.Insecure, 0)
	}
	preMisses := m.L1(0).Stats().Misses
	cost := m.PurgeCorePrivate(0)
	minCost := int64(m.L1(0).Lines())*m.Cfg.L1FlushLineLat + m.Cfg.TLBFlushLat
	if cost < minCost {
		t.Fatalf("purge cost = %d, want >= %d", cost, minCost)
	}
	if m.L1(0).Occupancy() != 0 || m.TLB(0).OccupancyByOwner(arch.Insecure) != 0 {
		t.Fatal("private state survived the purge")
	}
	// Re-touching a previously hot line must miss: purge thrashes locality.
	m.Access(0, buf.Addr(0), false, arch.Insecure, 0)
	if m.L1(0).Stats().Misses != preMisses+1 {
		t.Fatal("post-purge access did not miss in L1")
	}
}

func TestPurgeMCsDrainsQueues(t *testing.T) {
	m := newTestMachine(t)
	pinToSlice0(m)
	buf := m.NewSpace("p", arch.Insecure).Alloc("a", 1024*1024)
	// Generate dirty L2 evictions to enqueue controller write-backs.
	for off := 0; off < buf.Size; off += m.Cfg.LineSize {
		m.Access(0, buf.Addr(off), true, arch.Insecure, int64(off))
	}
	var queued int64
	for _, id := range m.AllMCs() {
		queued += m.MC(id).QueueOccupancy()
	}
	if queued == 0 {
		t.Fatal("no write-backs queued; the eviction model changed")
	}
	m.PurgeMCs(m.AllMCs())
	for _, id := range m.AllMCs() {
		if m.MC(id).QueueOccupancy() != 0 {
			t.Fatal("queue entries survived the purge")
		}
	}
}

func TestRehomeDomainPages(t *testing.T) {
	m := newTestMachine(t)
	if err := m.Part.AssignDomains(0b0011); err != nil {
		t.Fatal(err)
	}
	m.SetHomePolicy(arch.Secure, cache.NewLocalHome())
	m.SetSlices(arch.Secure, []cache.SliceID{0, 1, 2, 3})
	buf := m.NewSpace("enclave", arch.Secure).Alloc("data", 16*4096)
	for off := 0; off < buf.Size; off += m.Cfg.PageSize {
		m.Access(0, buf.Addr(off), false, arch.Secure, 0)
	}
	// Shrink the secure slice set to {0,1}: pages on 2,3 must move.
	m.SetSlices(arch.Secure, []cache.SliceID{0, 1})
	res, err := m.RehomeDomainPages(arch.Secure)
	if err != nil {
		t.Fatal(err)
	}
	if res.PagesMoved != 8 {
		t.Fatalf("moved %d pages, want 8 (those homed on slices 2,3)", res.PagesMoved)
	}
	if res.Cycles != int64(res.PagesMoved)*m.Cfg.RehomePageLat {
		t.Fatalf("rehome cost = %d", res.Cycles)
	}
	// Only the vacated slices 2,3 flush.
	for s := cache.SliceID(0); s < 4; s++ {
		if n := m.L2().Slice(s).Occupancy(); (n == 0) != (s >= 2) {
			t.Fatalf("slice %d holds %d lines after the rehome", s, n)
		}
	}
	for off := 0; off < buf.Size; off += m.Cfg.PageSize {
		_, _, home, _ := m.PageOf(buf.Addr(off))
		if home > 1 {
			t.Fatalf("page still homed on slice %d", home)
		}
	}
}

func TestRehomeRequiresLocalHoming(t *testing.T) {
	m := newTestMachine(t)
	m.NewSpace("p", arch.Insecure).Alloc("a", 4096)
	if _, err := m.RehomeDomainPages(arch.Insecure); err == nil {
		t.Fatal("rehoming under hash-for-home succeeded")
	}
}

// Local homing pins a whole page to one slice of the domain's set, so a
// one-slice set homes every page of an allocation on that slice.
func TestLocalHomingPinsEveryPage(t *testing.T) {
	m := newTestMachine(t)
	m.SetHomePolicy(arch.Insecure, cache.NewLocalHome())
	m.SetSlices(arch.Insecure, []cache.SliceID{7})
	buf := m.NewSpace("p", arch.Insecure).Alloc("data", 8*m.Cfg.PageSize)
	for off := 0; off < buf.Size; off += m.Cfg.PageSize {
		_, _, home, err := m.PageOf(buf.Addr(off))
		if err != nil {
			t.Fatal(err)
		}
		if home != 7 {
			t.Fatalf("page homed on slice %d, want 7", home)
		}
	}
}

// Strong isolation: with routing isolation active, same-domain traffic
// never crosses a link touching the other cluster.
func TestRoutingIsolationNoDrift(t *testing.T) {
	m := newTestMachine(t)
	if err := m.Part.AssignDomains(0b0011); err != nil {
		t.Fatal(err)
	}
	split, _ := noc.NewSplit(12, m.Cfg) // rows 0-1.5: a partial-row split
	m.SetSplit(split, true)
	m.SetHomePolicy(arch.Secure, cache.NewLocalHome())
	secSlices := make([]cache.SliceID, 12)
	for i := range secSlices {
		secSlices[i] = cache.SliceID(i)
	}
	m.SetSlices(arch.Secure, secSlices)
	buf := m.NewSpace("enclave", arch.Secure).Alloc("data", 64*4096)
	// The secure cluster, tracked as one tenant, stamps every link its
	// packets cross.
	m.SetTenantCores(1, split.Cores(noc.SecureCluster))
	for _, core := range split.Cores(noc.SecureCluster) {
		for off := 0; off < buf.Size; off += 4096 {
			m.Access(core, buf.Addr(off), true, arch.Secure, 0)
		}
	}
	if drift := driftedLinks(m, split.Member(noc.SecureCluster)); drift != 0 {
		t.Fatalf("secure traffic drifted over %d insecure links", drift)
	}
	if m.RouteViolations() != 0 {
		t.Fatalf("%d route violations", m.RouteViolations())
	}
}

func TestMCAttachPointsOnEdges(t *testing.T) {
	cfg := arch.TileGx72()
	m := newTestMachine(t)
	for i := 0; i < cfg.MemControllers; i++ {
		at := m.mcAttach[i]
		if at.Y != 0 && at.Y != cfg.MeshHeight-1 {
			t.Fatalf("MC%d attached at %v, not on an edge row", i, at)
		}
	}
	// MCs 0,1 (the secure mask 0b0011) sit on the top edge, adjacent to
	// the secure cluster prefix; MCs 2,3 on the bottom edge.
	if m.mcAttach[0].Y != 0 || m.mcAttach[1].Y != 0 {
		t.Fatal("secure-side controllers not on the top edge")
	}
	if m.mcAttach[2].Y != arch.TileGx72().MeshHeight-1 || m.mcAttach[3].Y != arch.TileGx72().MeshHeight-1 {
		t.Fatal("insecure-side controllers not on the bottom edge")
	}
}
