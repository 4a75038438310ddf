package sim

import (
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/cache"
	"ironhide/internal/mem"
	"ironhide/internal/noc"
)

// buildEquivMachine configures one machine for the equivalence runs: a
// partitioned memory system, local homing over each cluster's own slices,
// and the given contiguous split with routing isolation on.
func buildEquivMachine(t *testing.T, secure int) (*Machine, Buffer, Buffer) {
	t.Helper()
	m, err := NewMachine(arch.TileGx72())
	if err != nil {
		t.Fatal(err)
	}
	secBuf, insBuf := configEquivMachine(t, m, secure)
	return m, secBuf, insBuf
}

// configEquivMachine applies the equivalence configuration to an existing
// machine — fresh or recycled; the reset-purity test relies on the same
// steps driving both to identical behavior.
func configEquivMachine(t *testing.T, m *Machine, secure int) (Buffer, Buffer) {
	t.Helper()
	if err := m.Part.AssignDomains(0b0011); err != nil {
		t.Fatal(err)
	}
	split, err := noc.NewSplit(secure, m.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetSplit(split, true)

	var secBuf, insBuf Buffer
	if n := split.Size(noc.SecureCluster); n > 0 {
		slices := make([]cache.SliceID, n)
		for i := range slices {
			slices[i] = cache.SliceID(i)
		}
		m.SetHomePolicy(arch.Secure, cache.NewLocalHome())
		m.SetSlices(arch.Secure, slices)
		secBuf = m.NewSpace("enclave", arch.Secure).Alloc("data", 32*m.Cfg.PageSize)
	}
	if n := split.Size(noc.InsecureCluster); n > 0 {
		slices := make([]cache.SliceID, n)
		for i := range slices {
			slices[i] = cache.SliceID(secure + i)
		}
		m.SetHomePolicy(arch.Insecure, cache.NewLocalHome())
		m.SetSlices(arch.Insecure, slices)
		insBuf = m.NewSpace("ordinary", arch.Insecure).Alloc("data", 32*m.Cfg.PageSize)
	}
	return secBuf, insBuf
}

// driveEquiv issues an identical access stream on the machine — reads and
// writes from every core of each cluster, strided so the stream exercises
// L1 hits, L2 hits, L2 misses, write-backs, and both the core-to-slice
// and slice-to-controller route paths — and returns the per-access
// latencies in issue order.
func driveEquiv(m *Machine, secBuf, insBuf Buffer) []int64 {
	var lats []int64
	split := m.Split()
	run := func(cl noc.Cluster, d arch.Domain, buf Buffer) {
		if split.Size(cl) == 0 {
			return
		}
		for _, core := range split.Cores(cl) {
			for i := 0; i < 48; i++ {
				off := (int(core)*7919 + i*m.Cfg.LineSize*5) % buf.Size
				write := i%3 == 0
				lats = append(lats, m.Access(core, buf.Addr(off), write, d, int64(i)))
			}
		}
	}
	run(noc.SecureCluster, arch.Secure, secBuf)
	run(noc.InsecureCluster, arch.Insecure, insBuf)
	// Cross-domain traffic (the IPC-buffer class) from a few cores of the
	// secure cluster into insecure pages, exempt from containment.
	if split.Size(noc.SecureCluster) > 0 && split.Size(noc.InsecureCluster) > 0 {
		for _, core := range split.Cores(noc.SecureCluster)[:1] {
			for i := 0; i < 16; i++ {
				lats = append(lats, m.Access(core, insBuf.Addr(i*m.Cfg.LineSize), false, arch.Secure, int64(i)))
			}
		}
	}
	return lats
}

// The analytic routing helpers on the access hot path must match their
// slice-materializing references call for call — latency including link
// contention, and the route-violation count — for every (src, dst,
// accessor, owner) core-to-slice route and every (slice, controller,
// owner) slice-to-controller route. The calls cycle through tenant ids 0,
// 1 and 2, so each tracked call's conflicts depend on which links the
// earlier calls stamped: a route that takes other links than its
// reference shows up as a latency difference. One pair of twin machines
// walks a sequence of splits, so every SetSplit must invalidate the
// analytic route caches (routeGen) that the previous split filled; one
// split runs without routing isolation.
func TestAnalyticAccessMatchesMaterialized(t *testing.T) {
	cfg := arch.TileGx72()
	fast, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fast.SetTenantCores(1, nil)
	fast.SetTenantCores(2, nil)
	ref, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stamps := linkStamps{}
	calls := 0
	nextTenant := func() int8 {
		calls++
		return int8(calls % 3)
	}
	domains := []arch.Domain{arch.Secure, arch.Insecure}
	steps := []struct {
		secure  int
		isolate bool
	}{{0, true}, {1, true}, {7, true}, {8, true}, {12, true}, {32, true}, {12, false}, {45, true}, {63, true}, {64, true}, {20, true}}
	for _, st := range steps {
		split, err := noc.NewSplit(st.secure, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fast.SetSplit(split, st.isolate)
		ref.SetSplit(split, st.isolate)
		for s := 0; s < cfg.Cores(); s++ {
			src := cfg.CoordOf(arch.CoreID(s))
			for d := 0; d < cfg.Cores(); d++ {
				dst := cfg.CoordOf(arch.CoreID(d))
				for _, acc := range domains {
					for _, own := range domains {
						tid := nextTenant()
						got := fast.routeLat(src, dst, acc, own, tid)
						want := ref.routeLatMaterialized(src, dst, acc, own, stamps, tid)
						if got != want || fast.RouteViolations() != ref.RouteViolations() {
							t.Fatalf("split %d isolate %v route %v->%v (%v on %v page, tenant %d): latency %d, %d violations; reference %d, %d",
								st.secure, st.isolate, src, dst, acc, own, tid, got, fast.RouteViolations(), want, ref.RouteViolations())
						}
					}
				}
			}
		}
		for s := 0; s < cfg.Cores(); s++ {
			from := cfg.CoordOf(arch.CoreID(s))
			for mc := 0; mc < cfg.MemControllers; mc++ {
				for _, own := range domains {
					tid := nextTenant()
					got := fast.edgeRouteLat(from, mem.ControllerID(mc), own, tid)
					want := ref.edgeRouteLatMaterialized(from, mem.ControllerID(mc), own, stamps, tid)
					if got != want || fast.RouteViolations() != ref.RouteViolations() {
						t.Fatalf("split %d isolate %v slice %v -> MC %d (%v page, tenant %d): latency %d, %d violations; reference %d, %d",
							st.secure, st.isolate, from, mc, own, tid, got, fast.RouteViolations(), want, ref.RouteViolations())
					}
				}
			}
		}
	}
	if fast.RouteViolations() == 0 {
		t.Fatal("no split produced a route violation; the violation accounting went unchecked")
	}
	if fast.TenantConflicts(1) == 0 || fast.TenantConflicts(2) == 0 {
		t.Fatal("a tenant never conflicted; the link stamps went unchecked")
	}
}

// linkStamps is the reference's own per-link owner record, keyed by the
// directed link (from, to).
type linkStamps map[[2]arch.Coord]int8

// contend stamps path's links with tid and returns the link-contention
// cycles of the links another tenant crossed last; tid 0 stamps nothing.
func (s linkStamps) contend(path []arch.Coord, tid int8, cfg arch.Config) int64 {
	if tid == 0 {
		return 0
	}
	var conflicts int64
	for i := 0; i+1 < len(path); i++ {
		link := [2]arch.Coord{path[i], path[i+1]}
		if u := s[link]; u != 0 && u != tid {
			conflicts++
		}
		s[link] = tid
	}
	return conflicts * cfg.LinkContentionLat
}

// routeLatMaterialized is the slice-materializing reference for routeLat,
// the oracle TestAnalyticAccessMatchesMaterialized holds it to.
func (m *Machine) routeLatMaterialized(src, dst arch.Coord, accessor, owner arch.Domain, stamps linkStamps, tid int8) int64 {
	var path []arch.Coord
	if m.routingIsolated && accessor == owner {
		cl := m.split.ClusterOf(m.Cfg.CoreAt(src))
		p, _, err := noc.Route(src, dst, m.split.Member(cl))
		if err != nil {
			m.routeViolations++
			p = noc.Path(src, dst, noc.XY)
		}
		path = p
	} else {
		path = noc.Path(src, dst, noc.XY)
	}
	return m.Mesh.Latency(path) + stamps.contend(path, tid, m.Cfg)
}

// edgeRouteLatMaterialized is the slice-materializing reference for
// edgeRouteLat, the oracle TestAnalyticAccessMatchesMaterialized holds it
// to.
func (m *Machine) edgeRouteLatMaterialized(from arch.Coord, mcID mem.ControllerID, owner arch.Domain, stamps linkStamps, tid int8) int64 {
	attach := m.mcAttach[mcID]
	proxy := attach
	if m.routingIsolated {
		proxy = m.edgeProxy(owner, attach)
	}
	var path []arch.Coord
	if m.routingIsolated {
		cl := noc.InsecureCluster
		if owner == arch.Secure {
			cl = noc.SecureCluster
		}
		p, _, err := noc.Route(from, proxy, m.split.Member(cl))
		if err != nil {
			m.routeViolations++
			p = noc.Path(from, proxy, noc.XY)
		}
		path = p
	} else {
		path = noc.Path(from, proxy, noc.XY)
	}
	edgeHops := int64(noc.Dist(attach, proxy) + 1)
	return m.Mesh.Latency(path) + edgeHops*m.Cfg.HopLat + stamps.contend(path, tid, m.Cfg)
}

// The route-decision cache must not survive a SetSplit: decisions that
// were valid under the old split would drift traffic under the new one.
func TestRouteCacheInvalidatedOnSetSplit(t *testing.T) {
	m, secBuf, insBuf := buildEquivMachine(t, 12)
	driveEquiv(m, secBuf, insBuf) // populate the caches under split 12
	split, err := noc.NewSplit(20, m.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetSplit(split, true)
	// Track the secure cluster as one tenant so its packets stamp their
	// links (one tenant never conflicts, so no latency changes). Secure
	// pages are still homed on slices 0..11, all inside the new 20-core
	// secure cluster; fresh decisions must keep traffic contained.
	m.SetTenantCores(1, split.Cores(noc.SecureCluster))
	for _, core := range split.Cores(noc.SecureCluster) {
		for off := 0; off < secBuf.Size; off += m.Cfg.PageSize {
			m.Access(core, secBuf.Addr(off), true, arch.Secure, 0)
		}
	}
	if drift := driftedLinks(m, split.Member(noc.SecureCluster)); drift != 0 {
		t.Fatalf("stale route decisions drifted over %d links across the new boundary", drift)
	}
	if m.RouteViolations() != 0 {
		t.Fatalf("%d route violations after resplit", m.RouteViolations())
	}
}

// driftedLinks counts the directed mesh links with an endpoint outside
// member that a tracked tenant's packet crossed. It probes each such link
// with a one-hop route under tenant 127, which no core holds: the probe
// conflicts exactly when another tenant stamped the link.
func driftedLinks(m *Machine, member func(arch.Coord) bool) int64 {
	const probe = 127
	var n int64
	for c := 0; c < m.Cfg.Cores(); c++ {
		from := m.Cfg.CoordOf(arch.CoreID(c))
		for _, d := range []arch.Coord{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}} {
			to := arch.Coord{X: from.X + d.X, Y: from.Y + d.Y}
			if to.X < 0 || to.X >= m.Cfg.MeshWidth || to.Y < 0 || to.Y >= m.Cfg.MeshHeight {
				continue
			}
			if !member(from) || !member(to) {
				n += m.Mesh.RecordRoute(from, to, noc.XY, probe)
			}
		}
	}
	return n
}

// The steady-state access hot path must not allocate: one L1 hit, one
// L1-miss/L2-hit round trip, and one full L2-miss walk to DRAM all run
// allocation-free, with routing isolation active.
func TestAccessZeroAlloc(t *testing.T) {
	m, secBuf, _ := buildEquivMachine(t, 32)
	core := arch.CoreID(0)

	// L1 hit: warm one line, then re-touch it.
	hitAddr := secBuf.Addr(0)
	m.Access(core, hitAddr, false, arch.Secure, 0)
	if n := testing.AllocsPerRun(500, func() {
		m.Access(core, hitAddr, false, arch.Secure, 1)
	}); n != 0 {
		t.Fatalf("L1-hit access allocates %.2f objects, want 0", n)
	}

	// L1 miss / L2 hit: an L1-set eviction cycle of ways+1 conflicting
	// addresses — every access misses L1 and crosses the mesh to its home
	// L2 slice.
	way := m.Cfg.L1Sets() * m.Cfg.LineSize
	conflict := make([]arch.Addr, m.Cfg.L1Ways+1)
	for i := range conflict {
		conflict[i] = secBuf.Addr(i * way)
	}
	for _, a := range conflict {
		m.Access(core, a, false, arch.Secure, 0)
	}
	l1Before := m.L1(core).Stats().Misses
	i := 0
	if n := testing.AllocsPerRun(500, func() {
		m.Access(core, conflict[i%len(conflict)], false, arch.Secure, 2)
		i++
	}); n != 0 {
		t.Fatalf("L1-miss access allocates %.2f objects, want 0", n)
	}
	if m.L1(core).Stats().Misses == l1Before {
		t.Fatal("L1-miss gate did not actually miss in L1")
	}

	// Full L2 miss to DRAM, with write-backs: home a window twice the
	// size of one L2 slice entirely on slice 0 and stream writes over it
	// cyclically — LRU guarantees steady-state L2 misses and dirty
	// evictions, so the slice-to-controller edge path runs every access.
	m.SetSlices(arch.Secure, []cache.SliceID{0})
	missBuf := m.NewSpace("enclave", arch.Secure).Alloc("l2window", 2*m.Cfg.L2SliceSize)
	for off := 0; off < missBuf.Size; off += m.Cfg.LineSize {
		m.Access(core, missBuf.Addr(off), true, arch.Secure, 0)
	}
	l2Before := m.L2().Slice(0).Stats().Misses
	j := 0
	if n := testing.AllocsPerRun(2000, func() {
		m.Access(core, missBuf.Addr(j%missBuf.Size), true, arch.Secure, int64(j))
		j += m.Cfg.LineSize
	}); n != 0 {
		t.Fatalf("L2-miss access allocates %.2f objects, want 0", n)
	}
	if m.L2().Slice(0).Stats().Misses == l2Before {
		t.Fatal("L2-miss gate did not actually miss in L2")
	}
}
