// Package sim composes the hardware substrates — per-core private L1
// caches and TLBs, the distributed shared L2, the 2-D mesh, the memory
// controllers, and the speculative-access check — into the 64-core machine
// the paper evaluates, and provides the deterministic execution engine that
// runs instrumented workload threads on it.
//
// The simulator is a timing/state model: every memory reference issued by
// a workload walks TLB -> L1 -> (mesh) -> home L2 slice -> (mesh) ->
// memory controller -> DRAM, accumulating cycles and mutating cache state,
// so warm-up, thrash, purge, and partitioning effects emerge from real
// access streams rather than constants.
package sim

import (
	"fmt"
	"math/bits"

	"ironhide/internal/arch"
	"ironhide/internal/cache"
	"ironhide/internal/mem"
	"ironhide/internal/noc"
	"ironhide/internal/tlb"
)

// pageInfo records where a physical page lives: its DRAM region (hence
// memory controller) and its home L2 slice. A retired page (an unmapped
// departed tenant's) keeps its slot — page numbers are positional — but
// is no longer accessible or rehomed.
type pageInfo struct {
	domain  arch.Domain
	region  int
	home    cache.SliceID
	retired bool
}

// Machine is the modeled multicore.
type Machine struct {
	Cfg  arch.Config
	Mesh *noc.Mesh
	Part *mem.Partition

	l1   []*cache.Cache
	tlbs []*tlb.TLB
	l2   *cache.SliceArray
	mcs  []*mem.Controller

	// specCheck arms the hardware speculative-access check that multicore
	// MI6 and IRONHIDE employ (paper Section III-A2). Every access an
	// insecure process issues is checked against the region owner map, and
	// one whose data is homed in a secure DRAM region is stalled and then
	// discarded — speculative or not — with no architectural effect, so
	// secret-dependent state never forms outside the secure domain. The
	// check is asymmetric: a secure process may access the insecure world's
	// regions, which is how the shared IPC buffer works (the shared data is
	// insecure by definition, and no secure data ever leaves the secure
	// regions). The insecure and SGX-like baselines leave it off; Reset
	// disarms it.
	specCheck bool

	mcAttach []arch.Coord // mesh-edge attach point of each controller

	// pageShift/coords are derived from Cfg once at construction so the
	// access hot path divides and copies nothing: page numbers come from a
	// shift (PageSize is validated power-of-two) and mesh coordinates from
	// a flat table (Config.CoordOf's value receiver would copy the whole
	// Config per call).
	pageShift uint
	coords    []arch.Coord
	allSlices []cache.SliceID // every slice; the fresh machine's slice set

	pages      []pageInfo
	pagesByDom [2][]uint64

	policy   [2]cache.HomePolicy
	slices   [2][]cache.SliceID
	regionRR [2]int // round-robin cursor over the domain's regions

	// allocRegions, when non-nil for a domain, overrides the partition's
	// region list for that domain's subsequent allocations — the lever the
	// space-shared co-tenancy engine uses to place each tenant's pages in
	// its own DRAM regions (hence memory controllers) within the domain's
	// partition. Reset clears it.
	allocRegions [2][]int

	// Space-shared co-tenancy accounting: tenantOf maps each core to the
	// tenant occupying it (0 = untracked), and tenantConflicts[t] counts
	// the NoC link-contention events charged to tenant t. When tracking is
	// enabled every routed access stamps its links with the accessor's
	// tenant and pays Cfg.LinkContentionLat per link taken over from a
	// different tenant. Disabled (the default) the access path is
	// byte-identical to a machine without tenants.
	tenantTrack     bool
	tenantOf        []int8
	tenantConflicts []int64

	split           noc.Split
	routingIsolated bool

	// Route-decision caches for the access hot path, keyed by (split,
	// src, dst, domain): routeGen stamps entries so SetSplit invalidates
	// every decision in O(1). routeCache covers core-to-slice routes
	// (src*cores+dst; the deciding cluster derives from src under the
	// current split). edgeCache covers slice-to-controller routes, whose
	// proxy point additionally depends on the owning domain.
	routeGen   uint64
	routeCache []routeDecision
	edgeCache  [2][]edgeDecision

	// allocHook, when set, observes every AddressSpace.Alloc call (domain,
	// name, requested bytes) — the trace recorder uses it to capture an
	// allocation schedule a replayer can re-issue to reproduce the exact
	// page layout.
	allocHook func(d arch.Domain, name string, size int)

	// liteExec short-circuits every Ctx charge to a flat L1-hit latency,
	// skipping the machine walk entirely. Trace capture uses it: the
	// recorded op stream is timing-independent (kernels cannot observe
	// latency), so capture needs the event sequence, not the cycle model.
	liteExec bool

	routeViolations int64
	blockedAccesses int64

	// Group arena: every Group (and its Ctx set) this machine has handed
	// out, reissued in order after a Reset rewinds the cursor. NewGroup
	// reinitializes a recycled group field-for-field, so reuse is invisible
	// to callers; a recycled machine then serves a whole binding search
	// without allocating gangs.
	groupArena []*Group
	groupNext  int
}

// routeDecision is one cached core-to-slice routing choice.
type routeDecision struct {
	gen      uint64
	order    noc.Order
	violated bool
}

// edgeDecision is one cached slice-to-controller routing choice: the
// in-cluster proxy router, the chosen ordering, and the precomputed
// edge-channel cycles past the proxy.
type edgeDecision struct {
	gen      uint64
	proxy    arch.Coord
	order    noc.Order
	edgeLat  int64
	violated bool
}

// NewMachine builds a machine from the configuration with every resource
// shared (insecure-owned regions, hash-for-home over all slices) — the
// insecure baseline's view. Security models reconfigure it.
func NewMachine(cfg arch.Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Cores()
	m := &Machine{
		Cfg:  cfg,
		Mesh: noc.New(cfg),
		Part: mem.NewPartition(cfg),
	}
	m.l1 = make([]*cache.Cache, n)
	m.tlbs = make([]*tlb.TLB, n)
	for i := 0; i < n; i++ {
		m.l1[i] = cache.New(cfg.L1Size, cfg.L1Ways, cfg.LineSize)
		m.tlbs[i] = tlb.New(cfg.TLBEntries, cfg.TLBWays)
	}
	m.l2 = cache.NewSliceArray(n, cfg)
	m.mcs = make([]*mem.Controller, cfg.MemControllers)
	m.mcAttach = make([]arch.Coord, cfg.MemControllers)
	for i := range m.mcs {
		m.mcs[i] = mem.NewController(cfg)
		m.mcAttach[i] = mcAttachPoint(i, cfg)
	}
	m.pageShift = uint(bits.TrailingZeros(uint(cfg.PageSize)))
	m.coords = make([]arch.Coord, n)
	for i := range m.coords {
		m.coords[i] = cfg.CoordOf(arch.CoreID(i))
	}
	m.allSlices = make([]cache.SliceID, n)
	for i := range m.allSlices {
		m.allSlices[i] = cache.SliceID(i)
	}
	m.policy[arch.Insecure] = cache.HashForHome{}
	m.policy[arch.Secure] = cache.HashForHome{}
	m.slices[arch.Insecure] = m.allSlices
	m.slices[arch.Secure] = m.allSlices
	m.split, _ = noc.NewSplit(0, cfg)
	m.routeGen = 1
	m.routeCache = make([]routeDecision, n*n)
	for d := range m.edgeCache {
		m.edgeCache[d] = make([]edgeDecision, n*cfg.MemControllers)
	}
	return m, nil
}

// Reset restores the machine to its freshly built state — the insecure
// baseline's all-shared view NewMachine constructs — without reallocating
// any of its ~7.7 MB of cache, TLB, and routing state. Caches and TLBs
// invalidate by generation bump (O(1) each), the route caches by the
// shared route generation, the mesh's link owner stamps clear, and the
// page table truncates in place. The driver's machine arena calls this
// each time it hands a released machine to its next owner; the
// reset-purity test gates it byte-identical to a fresh machine.
func (m *Machine) Reset() {
	for i := range m.l1 {
		m.l1[i].Reset()
		m.tlbs[i].Reset()
	}
	m.l2.Reset()
	for _, c := range m.mcs {
		c.Reset()
	}
	m.Mesh.ResetOwners()
	m.Part.Shared()
	m.specCheck = false
	m.pages = m.pages[:0]
	m.pagesByDom[arch.Insecure] = m.pagesByDom[arch.Insecure][:0]
	m.pagesByDom[arch.Secure] = m.pagesByDom[arch.Secure][:0]
	m.policy[arch.Insecure] = cache.HashForHome{}
	m.policy[arch.Secure] = cache.HashForHome{}
	m.slices[arch.Insecure] = m.allSlices
	m.slices[arch.Secure] = m.allSlices
	m.regionRR = [2]int{}
	m.split, _ = noc.NewSplit(0, m.Cfg)
	m.routingIsolated = false
	m.routeGen++
	m.allocRegions = [2][]int{}
	m.tenantTrack = false
	clear(m.tenantOf)
	m.tenantConflicts = m.tenantConflicts[:0]
	m.allocHook = nil
	m.liteExec = false
	m.routeViolations = 0
	m.blockedAccesses = 0
	m.groupNext = 0
}

// SetSpecCheck arms or disarms the speculative-access check (see the
// specCheck field); the security models set it when they configure the
// machine.
func (m *Machine) SetSpecCheck(on bool) { m.specCheck = on }

// SetLiteExec switches the flat-latency execution mode on or off (see the
// liteExec field). Reset clears it.
func (m *Machine) SetLiteExec(on bool) { m.liteExec = on }

// mcAttachPoint places controllers on the outside edges, alternating top
// and bottom so that the secure cluster (the row-major prefix, i.e. the
// top rows) is adjacent to the low-numbered controllers the paper
// dedicates to it (pos=0b0011) and the insecure cluster to the rest.
func mcAttachPoint(i int, cfg arch.Config) arch.Coord {
	perEdge := (cfg.MemControllers + 1) / 2
	spacing := cfg.MeshWidth / (perEdge + 1)
	if spacing == 0 {
		spacing = 1
	}
	x := spacing * (i%perEdge + 1)
	if x >= cfg.MeshWidth {
		x = cfg.MeshWidth - 1
	}
	y := 0
	if i >= perEdge {
		y = cfg.MeshHeight - 1
	}
	return arch.Coord{X: x, Y: y}
}

// L1 returns core c's private L1 cache.
func (m *Machine) L1(c arch.CoreID) *cache.Cache { return m.l1[c] }

// TLB returns core c's private TLB.
func (m *Machine) TLB(c arch.CoreID) *tlb.TLB { return m.tlbs[c] }

// L2 returns the distributed shared L2.
func (m *Machine) L2() *cache.SliceArray { return m.l2 }

// MC returns memory controller i.
func (m *Machine) MC(i mem.ControllerID) *mem.Controller { return m.mcs[i] }

// Split returns the current cluster split.
func (m *Machine) Split() noc.Split { return m.split }

// SetSplit installs a cluster split; isolate enables IRONHIDE's
// intra-cluster routing containment for every subsequent access. Bumping
// the generation stamp invalidates every cached route decision.
func (m *Machine) SetSplit(s noc.Split, isolate bool) {
	m.split = s
	m.routingIsolated = isolate
	m.routeGen++
}

// SetAllocHook installs (or, with nil, removes) an observer of every
// AddressSpace.Alloc call on this machine.
func (m *Machine) SetAllocHook(fn func(d arch.Domain, name string, size int)) { m.allocHook = fn }

// SetHomePolicy installs the homing policy a domain allocates pages with.
func (m *Machine) SetHomePolicy(d arch.Domain, p cache.HomePolicy) { m.policy[d] = p }

// SetSlices restricts a domain's pages to the given home slices.
func (m *Machine) SetSlices(d arch.Domain, s []cache.SliceID) { m.slices[d] = s }

// Slices returns the home slices available to a domain.
func (m *Machine) Slices(d arch.Domain) []cache.SliceID { return m.slices[d] }

// SetAllocRegions overrides (or, with nil, restores) the DRAM regions the
// domain's subsequent allocations draw from. The co-tenancy engine brackets
// each tenant's initialization with it so every tenant's pages land in the
// tenant's own regions; callers must pass regions the partition actually
// assigns to the domain, or the speculative-access check will discard the
// tenant's traffic.
func (m *Machine) SetAllocRegions(d arch.Domain, regions []int) { m.allocRegions[d] = regions }

// SetTenantCores marks the given cores as occupied by tenant t (1-based;
// at most 127 tenants) and enables co-tenancy link accounting. Every
// routed access from a tracked core stamps its mesh links and pays
// Cfg.LinkContentionLat per link last used by a different tenant.
func (m *Machine) SetTenantCores(t int, cores []arch.CoreID) {
	if t <= 0 || t > 127 {
		panic(fmt.Sprintf("sim: tenant id %d out of range [1,127]", t))
	}
	if m.tenantOf == nil {
		m.tenantOf = make([]int8, m.Cfg.Cores())
	}
	for _, c := range cores {
		m.tenantOf[c] = int8(t)
	}
	for len(m.tenantConflicts) <= t {
		m.tenantConflicts = append(m.tenantConflicts, 0)
	}
	m.Mesh.EnableOwnerTracking()
	m.tenantTrack = true
}

// TenantConflicts returns the NoC link-contention events charged to tenant
// t so far (zero for unknown tenants).
func (m *Machine) TenantConflicts(t int) int64 {
	if t <= 0 || t >= len(m.tenantConflicts) {
		return 0
	}
	return m.tenantConflicts[t]
}

// RouteViolations counts intra-cluster packets for which neither X-Y nor
// Y-X routing stayed inside the cluster. Under contiguous row-major splits
// this must remain zero; the property tests and the experiment harness
// assert it.
func (m *Machine) RouteViolations() int64 { return m.routeViolations }

// BlockedAccesses counts accesses discarded by the speculative-access
// hardware check.
func (m *Machine) BlockedAccesses() int64 { return m.blockedAccesses }

// PageOf exposes a page's placement (test and attack oracle).
func (m *Machine) PageOf(addr arch.Addr) (domain arch.Domain, region int, home cache.SliceID, err error) {
	pn := uint64(addr) / uint64(m.Cfg.PageSize)
	if pn >= uint64(len(m.pages)) || m.pages[pn].retired {
		return 0, 0, 0, fmt.Errorf("sim: address %#x is unmapped", addr)
	}
	pi := m.pages[pn]
	return pi.domain, pi.region, pi.home, nil
}

// Access performs one memory reference by domain d from the given core at
// logical time now, returning the observed latency in cycles. The
// reference updates TLB, L1, home L2 slice, and memory controller state
// along the way, and a tracked tenant's link stamps.
func (m *Machine) Access(core arch.CoreID, addr arch.Addr, write bool, d arch.Domain, now int64) int64 {
	pn := uint64(addr) >> m.pageShift
	if pn >= uint64(len(m.pages)) || m.pages[pn].retired {
		panic(fmt.Sprintf("sim: access to unmapped address %#x", addr))
	}
	pg := &m.pages[pn]

	// The speculative-access check (see the specCheck field): an insecure
	// access to a secure DRAM region is discarded without touching any
	// microarchitecture state.
	if m.specCheck && d == arch.Insecure && m.Part.OwnerOf(pg.region) == arch.Secure {
		m.blockedAccesses++
		return m.Cfg.L1HitLat
	}

	// The MRU fast halves inline here, so the dominant replay pattern —
	// repeated touches of the same page and line — completes without a
	// function call past this point.
	var lat int64
	t := m.tlbs[core]
	if !t.HitMRU(pn) && !t.ScanLookup(pn, d) {
		lat += m.Cfg.PageWalkLat
	}

	lat += m.Cfg.L1HitLat
	l1 := m.l1[core]
	if l1.HitMRU(addr, write) {
		return lat
	}
	r1 := l1.ScanAccess(addr, write, d)
	if r1.Hit {
		return lat
	}

	// L1 miss: traverse the mesh to the home slice. Cross-domain traffic
	// (the shared IPC buffer) is exempt from containment — it is the one
	// packet class allowed to cross the cluster boundary.
	var tid int8
	if m.tenantTrack {
		tid = m.tenantOf[core]
	}
	src := m.coords[core]
	dst := m.coords[pg.home]
	lat += 2 * m.routeLat(src, dst, d, pg.domain, tid) // request + response

	lat += m.Cfg.L2HitLat
	r2 := m.l2.Slice(pg.home).Access(addr, write, d)
	mcID := m.Part.ControllerOf(pg.region)
	if r2.WroteBack {
		// Dirty L2 victim drains to memory off the critical path, but it
		// occupies the controller queue (purges must later drain it).
		m.mcs[mcID].Access(now+lat, true)
	}
	if r2.Hit {
		return lat
	}

	// L2 miss: continue to the region's memory controller.
	lat += 2 * m.edgeRouteLat(dst, mcID, pg.domain, tid)
	lat += m.mcs[mcID].Access(now+lat, false)
	return lat
}

// routeLat computes one-way latency from src to dst. When routing
// isolation is active and both endpoints belong to the same cluster, the
// bidirectional X-Y/Y-X chooser keeps the path contained (an uncontainable
// route counts a violation); cross-cluster packets (accessor domain !=
// page domain) use plain X-Y. The decision comes from the route cache and
// latency is analytic, so the steady-state path allocates nothing. Only a
// tracked tenant (tid != 0) walks the route's links: it stamps them and
// pays the link-contention penalty for every link it takes over from a
// different co-resident tenant.
func (m *Machine) routeLat(src, dst arch.Coord, accessor, owner arch.Domain, tid int8) int64 {
	order := noc.XY
	if m.routingIsolated && accessor == owner {
		idx := int(m.Cfg.CoreAt(src))*m.Cfg.Cores() + int(m.Cfg.CoreAt(dst))
		e := &m.routeCache[idx]
		if e.gen != m.routeGen {
			cl := m.split.ClusterOf(m.Cfg.CoreAt(src))
			ord, ok := m.split.ChooseOrder(src, dst, cl)
			*e = routeDecision{gen: m.routeGen, order: ord, violated: !ok}
		}
		order = e.order
		if e.violated {
			m.routeViolations++
		}
	}
	return m.Mesh.LatencyBetween(src, dst) + m.contend(src, dst, order, tid)
}

// contend stamps a tracked tenant's route and returns its link-contention
// cycles; untracked traffic (tid 0) touches no link.
func (m *Machine) contend(src, dst arch.Coord, order noc.Order, tid int8) int64 {
	if tid == 0 {
		return 0
	}
	conflicts := m.Mesh.RecordRoute(src, dst, order, tid)
	m.tenantConflicts[tid] += conflicts
	return conflicts * m.Cfg.LinkContentionLat
}

// edgeRouteLat computes one-way latency from an L2 slice to a memory
// controller. The on-mesh segment runs to the cluster's own edge row (so
// it never crosses the cluster boundary); the remainder travels on the
// controller's dedicated edge channel. The proxy point, ordering, and
// edge-channel cycles come from the per-domain edge cache.
func (m *Machine) edgeRouteLat(from arch.Coord, mcID mem.ControllerID, owner arch.Domain, tid int8) int64 {
	idx := int(m.Cfg.CoreAt(from))*len(m.mcs) + int(mcID)
	e := &m.edgeCache[owner][idx]
	if e.gen != m.routeGen {
		*e = m.decideEdgeRoute(from, mcID, owner)
	}
	if e.violated {
		m.routeViolations++
	}
	return m.Mesh.LatencyBetween(from, e.proxy) + e.edgeLat + m.contend(from, e.proxy, e.order, tid)
}

// decideEdgeRoute computes one slice-to-controller routing decision under
// the current split.
func (m *Machine) decideEdgeRoute(from arch.Coord, mcID mem.ControllerID, owner arch.Domain) edgeDecision {
	attach := m.mcAttach[mcID]
	proxy := attach
	order := noc.XY
	violated := false
	if m.routingIsolated {
		proxy = m.edgeProxy(owner, attach)
		cl := noc.InsecureCluster
		if owner == arch.Secure {
			cl = noc.SecureCluster
		}
		var ok bool
		order, ok = m.split.ChooseOrder(from, proxy, cl)
		violated = !ok
	}
	edgeHops := int64(noc.Dist(attach, proxy) + 1)
	return edgeDecision{
		gen:      m.routeGen,
		proxy:    proxy,
		order:    order,
		edgeLat:  edgeHops * m.Cfg.HopLat,
		violated: violated,
	}
}

// edgeProxy clamps a controller attach point into the owner cluster's own
// edge row: the secure cluster (row-major prefix) exits at the top edge,
// the insecure cluster at the bottom edge.
func (m *Machine) edgeProxy(owner arch.Domain, attach arch.Coord) arch.Coord {
	w := m.Cfg.MeshWidth
	if owner == arch.Secure {
		row0 := m.split.SecureCores
		if row0 > w {
			row0 = w
		}
		if row0 <= 0 {
			row0 = 1
		}
		x := attach.X
		if x > row0-1 {
			x = row0 - 1
		}
		return arch.Coord{X: x, Y: 0}
	}
	lastRow := m.Cfg.MeshHeight - 1
	firstIdx := lastRow * w
	minX := 0
	if m.split.SecureCores > firstIdx {
		minX = m.split.SecureCores - firstIdx
	}
	if minX > w-1 {
		minX = w - 1
	}
	x := attach.X
	if x < minX {
		x = minX
	}
	return arch.Coord{X: x, Y: lastRow}
}
