// Package noc models the 2-D mesh on-chip network of the Tile-Gx72 and the
// deterministic dimension-ordered routing IRONHIDE relies on for strong
// isolation.
//
// With plain X-Y routing, packets between two cores of one cluster can
// drift through routers belonging to the other cluster whenever a row is
// split between clusters. The paper therefore requires *bidirectional*
// deterministic routing: each packet is routed X-Y or Y-X, whichever keeps
// the whole path inside the source cluster (Section III-B2). This package
// implements both orders, containment checking, and the route chooser, and
// exposes per-link traffic counters used by the evaluation.
//
// Two equivalent APIs exist side by side. The slice-returning Path/Route
// functions materialize routes coordinate by coordinate; tests and the
// attack oracle use them. The analytic API (Dist, Mesh.LatencyBetween,
// Mesh.RecordRoute, Split.ChooseOrder) computes the same latencies, link
// charges, and containment decisions in O(1) space — the simulator's
// access hot path runs entirely on it, allocation-free. The equivalence
// tests prove the two produce byte-identical results for every route.
package noc

import (
	"fmt"

	"ironhide/internal/arch"
)

// Order is a dimension ordering for deterministic routing.
type Order int

const (
	// XY routes along the row first, then the column.
	XY Order = iota
	// YX routes along the column first, then the row.
	YX
)

// String names the ordering.
func (o Order) String() string {
	if o == XY {
		return "X-Y"
	}
	return "Y-X"
}

// Directed-link directions out of a router. Every router owns four
// outgoing links (whether or not a neighbor exists on that side — edge
// links simply never carry traffic), so the dense link index of
// (router, direction) is router*linkDirs + direction.
const (
	dirEast  = iota // +X
	dirWest         // -X
	dirSouth        // +Y
	dirNorth        // -Y
	linkDirs
)

// dirOf returns the direction of the unit step from a to b, or -1 if the
// routers are not mesh neighbors.
func dirOf(a, b arch.Coord) int {
	switch {
	case b.Y == a.Y && b.X == a.X+1:
		return dirEast
	case b.Y == a.Y && b.X == a.X-1:
		return dirWest
	case b.X == a.X && b.Y == a.Y+1:
		return dirSouth
	case b.X == a.X && b.Y == a.Y-1:
		return dirNorth
	}
	return -1
}

// neighbor returns the router one step from at in direction dir.
func neighbor(at arch.Coord, dir int) arch.Coord {
	switch dir {
	case dirEast:
		return arch.Coord{X: at.X + 1, Y: at.Y}
	case dirWest:
		return arch.Coord{X: at.X - 1, Y: at.Y}
	case dirSouth:
		return arch.Coord{X: at.X, Y: at.Y + 1}
	default:
		return arch.Coord{X: at.X, Y: at.Y - 1}
	}
}

// Mesh is a W x H grid of routers with per-link traffic accounting. The
// counters live in a flat [W*H*linkDirs]int64 array indexed by the dense
// directed-link index, so charging a link is one add with no hashing and
// no allocation.
type Mesh struct {
	W, H      int
	hopLat    int64
	routerLat int64
	traffic   []int64 // dense directed-link index -> flits

	// lastUser tracks, per directed link, the tenant whose packet most
	// recently crossed it (0 = no owner yet). It backs the space-shared
	// co-tenancy interference accounting: a route recorded under an owner
	// counts the links it takes over from a *different* tenant. The array
	// is allocated lazily by the first EnableOwnerTracking call, so
	// single-tenant machines pay nothing.
	lastUser []int8
}

// New builds a mesh from the machine configuration.
func New(cfg arch.Config) *Mesh {
	return &Mesh{
		W:         cfg.MeshWidth,
		H:         cfg.MeshHeight,
		hopLat:    cfg.HopLat,
		routerLat: cfg.RouterLat,
		traffic:   make([]int64, cfg.MeshWidth*cfg.MeshHeight*linkDirs),
	}
}

// Dist returns the Manhattan distance between two routers — the number of
// links any dimension-ordered path between them crosses.
func Dist(src, dst arch.Coord) int {
	return arch.Abs(dst.X-src.X) + arch.Abs(dst.Y-src.Y)
}

// Path computes the deterministic dimension-ordered path from src to dst
// (inclusive of both endpoints) under the given ordering.
func Path(src, dst arch.Coord, order Order) []arch.Coord {
	path := make([]arch.Coord, 0, Dist(src, dst)+1)
	at := src
	path = append(path, at)
	stepX := func() {
		for at.X != dst.X {
			at.X += sign(dst.X - at.X)
			path = append(path, at)
		}
	}
	stepY := func() {
		for at.Y != dst.Y {
			at.Y += sign(dst.Y - at.Y)
			path = append(path, at)
		}
	}
	if order == XY {
		stepX()
		stepY()
	} else {
		stepY()
		stepX()
	}
	return path
}

// Contained reports whether every router of the path satisfies member.
func Contained(path []arch.Coord, member func(arch.Coord) bool) bool {
	for _, at := range path {
		if !member(at) {
			return false
		}
	}
	return true
}

// ErrNoContainedRoute is returned when neither X-Y nor Y-X keeps an
// intra-cluster packet inside its cluster; under IRONHIDE's contiguous
// row-major cluster allocations this must never happen, and the property
// tests prove it.
type ErrNoContainedRoute struct {
	Src, Dst arch.Coord
}

// Error implements error.
func (e ErrNoContainedRoute) Error() string {
	return fmt.Sprintf("noc: no contained route %v -> %v under X-Y or Y-X", e.Src, e.Dst)
}

// Route picks the deterministic ordering for an intra-cluster packet:
// X-Y if the whole X-Y path stays inside the cluster, otherwise Y-X if
// that stays inside, otherwise an ErrNoContainedRoute. member defines the
// cluster of the packet's source and destination.
func Route(src, dst arch.Coord, member func(arch.Coord) bool) ([]arch.Coord, Order, error) {
	if p := Path(src, dst, XY); Contained(p, member) {
		return p, XY, nil
	}
	if p := Path(src, dst, YX); Contained(p, member) {
		return p, YX, nil
	}
	return nil, XY, ErrNoContainedRoute{Src: src, Dst: dst}
}

// Latency returns the traversal cycles for a path: injection/ejection
// overhead plus one hop per link crossed.
func (m *Mesh) Latency(path []arch.Coord) int64 {
	if len(path) <= 1 {
		// Local delivery still pays router injection/ejection.
		return m.routerLat
	}
	return m.routerLat + int64(len(path)-1)*m.hopLat
}

// LatencyBetween returns the traversal cycles between two routers without
// materializing the path: a dimension-ordered path always crosses exactly
// Dist(src, dst) links, so the latency is closed-form and identical for
// both orderings.
func (m *Mesh) LatencyBetween(src, dst arch.Coord) int64 {
	d := Dist(src, dst)
	if d == 0 {
		return m.routerLat
	}
	return m.routerLat + int64(d)*m.hopLat
}

// Record charges the path's links with one flit of traffic. Successive
// path elements must be mesh neighbors (every dimension-ordered path is).
func (m *Mesh) Record(path []arch.Coord) {
	for i := 0; i+1 < len(path); i++ {
		m.charge(path[i], dirOf(path[i], path[i+1]))
	}
}

// RecordRoute charges the links of the dimension-ordered route from src
// to dst under the given ordering, walking the coordinates inline. It is
// the allocation-free equivalent of Record(Path(src, dst, order)).
func (m *Mesh) RecordRoute(src, dst arch.Coord, order Order) {
	at := src
	if order == XY {
		at = m.chargeRow(at, dst.X)
		m.chargeCol(at, dst.Y)
	} else {
		at = m.chargeCol(at, dst.Y)
		m.chargeRow(at, dst.X)
	}
}

// chargeRow charges the horizontal links from at to (toX, at.Y) and
// returns the corner router.
func (m *Mesh) chargeRow(at arch.Coord, toX int) arch.Coord {
	dir, step := dirEast, 1
	if toX < at.X {
		dir, step = dirWest, -1
	}
	for at.X != toX {
		m.traffic[(at.Y*m.W+at.X)*linkDirs+dir]++
		at.X += step
	}
	return at
}

// chargeCol charges the vertical links from at to (at.X, toY) and returns
// the corner router.
func (m *Mesh) chargeCol(at arch.Coord, toY int) arch.Coord {
	dir, step := dirSouth, 1
	if toY < at.Y {
		dir, step = dirNorth, -1
	}
	for at.Y != toY {
		m.traffic[(at.Y*m.W+at.X)*linkDirs+dir]++
		at.Y += step
	}
	return at
}

// charge adds one flit to the directed link leaving from in direction dir.
func (m *Mesh) charge(from arch.Coord, dir int) {
	if dir < 0 {
		panic(fmt.Sprintf("noc: link from %v is not a unit mesh step", from))
	}
	m.traffic[(from.Y*m.W+from.X)*linkDirs+dir]++
}

// LinkTraffic reports the flits recorded on the directed link a->b.
// Non-adjacent router pairs carry no link and report zero.
func (m *Mesh) LinkTraffic(a, b arch.Coord) int64 {
	if a.X < 0 || a.X >= m.W || a.Y < 0 || a.Y >= m.H {
		return 0
	}
	dir := dirOf(a, b)
	if dir < 0 {
		return 0
	}
	return m.traffic[(a.Y*m.W+a.X)*linkDirs+dir]
}

// TotalTraffic sums flits over all links.
func (m *Mesh) TotalTraffic() int64 {
	var t int64
	for _, n := range m.traffic {
		t += n
	}
	return t
}

// TrafficThrough sums flits on links whose endpoints fail member — i.e.,
// traffic that drifted outside a cluster. The strong-isolation tests
// assert this is zero for intra-cluster traffic.
func (m *Mesh) TrafficThrough(member func(arch.Coord) bool) int64 {
	var t int64
	for i, n := range m.traffic {
		if n == 0 {
			continue
		}
		from := arch.Coord{X: (i / linkDirs) % m.W, Y: i / linkDirs / m.W}
		if !member(from) || !member(neighbor(from, i%linkDirs)) {
			t += n
		}
	}
	return t
}

// ResetTraffic clears the link counters and any per-link owner state.
func (m *Mesh) ResetTraffic() {
	clear(m.traffic)
	clear(m.lastUser)
}

// EnableOwnerTracking allocates the per-link owner array (idempotent).
// RecordRouteOwner requires it; plain RecordRoute ignores it.
func (m *Mesh) EnableOwnerTracking() {
	if m.lastUser == nil {
		m.lastUser = make([]int8, len(m.traffic))
	}
}

// RecordRouteOwner charges the links of the dimension-ordered route from
// src to dst exactly like RecordRoute, and additionally stamps each link
// with the owning tenant, returning how many of the route's links were
// last used by a *different* tenant (the contention events of space-shared
// co-tenancy). Two tenants whose routes never share a directed link can
// never conflict, so disjoint placements provably report zero.
func (m *Mesh) RecordRouteOwner(src, dst arch.Coord, order Order, owner int8) int64 {
	at := src
	var conflicts int64
	if order == XY {
		at, conflicts = m.chargeRowOwner(at, dst.X, owner, conflicts)
		_, conflicts = m.chargeColOwner(at, dst.Y, owner, conflicts)
	} else {
		at, conflicts = m.chargeColOwner(at, dst.Y, owner, conflicts)
		_, conflicts = m.chargeRowOwner(at, dst.X, owner, conflicts)
	}
	return conflicts
}

// chargeRowOwner is chargeRow with owner stamping and conflict counting.
func (m *Mesh) chargeRowOwner(at arch.Coord, toX int, owner int8, conflicts int64) (arch.Coord, int64) {
	dir, step := dirEast, 1
	if toX < at.X {
		dir, step = dirWest, -1
	}
	for at.X != toX {
		li := (at.Y*m.W+at.X)*linkDirs + dir
		m.traffic[li]++
		if u := m.lastUser[li]; u != 0 && u != owner {
			conflicts++
		}
		m.lastUser[li] = owner
		at.X += step
	}
	return at, conflicts
}

// chargeColOwner is chargeCol with owner stamping and conflict counting.
func (m *Mesh) chargeColOwner(at arch.Coord, toY int, owner int8, conflicts int64) (arch.Coord, int64) {
	dir, step := dirSouth, 1
	if toY < at.Y {
		dir, step = dirNorth, -1
	}
	for at.Y != toY {
		li := (at.Y*m.W+at.X)*linkDirs + dir
		m.traffic[li]++
		if u := m.lastUser[li]; u != 0 && u != owner {
			conflicts++
		}
		m.lastUser[li] = owner
		at.Y += step
	}
	return at, conflicts
}

func sign(x int) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}
