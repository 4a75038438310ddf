// Package noc models the 2-D mesh on-chip network of the Tile-Gx72 and the
// deterministic dimension-ordered routing IRONHIDE relies on for strong
// isolation.
//
// With plain X-Y routing, packets between two cores of one cluster can
// drift through routers belonging to the other cluster whenever a row is
// split between clusters. The paper therefore requires *bidirectional*
// deterministic routing: each packet is routed X-Y or Y-X, whichever keeps
// the whole path inside the source cluster (Section III-B2). This package
// implements both orders, containment checking, and the route chooser.
// Isolation is a routing decision, so the mesh keeps no traffic counters;
// its only per-link state is the tenant stamp that space-shared
// co-tenancy charges link contention from.
//
// Two equivalent APIs exist side by side. The slice-returning Path/Route
// functions materialize routes coordinate by coordinate; tests use them as
// the reference. The analytic API (Dist, Mesh.LatencyBetween,
// Mesh.RecordRoute, Split.ChooseOrder) computes the same latencies, link
// stamps, and containment decisions in O(1) space — the simulator's
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

// Mesh is a W x H grid of routers.
type Mesh struct {
	W, H      int
	hopLat    int64
	routerLat int64

	// lastUser tracks, per directed link (dense index), the tenant whose
	// packet most recently crossed it (0 = no owner yet). It backs the
	// space-shared co-tenancy interference accounting: a route recorded
	// under an owner counts the links it takes over from a *different*
	// tenant. The array is allocated lazily by the first
	// EnableOwnerTracking call, so single-tenant machines pay nothing.
	lastUser []int8
}

// New builds a mesh from the machine configuration.
func New(cfg arch.Config) *Mesh {
	return &Mesh{
		W:         cfg.MeshWidth,
		H:         cfg.MeshHeight,
		hopLat:    cfg.HopLat,
		routerLat: cfg.RouterLat,
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

// ResetOwners clears every link's owner stamp.
func (m *Mesh) ResetOwners() { clear(m.lastUser) }

// EnableOwnerTracking allocates the per-link owner array (idempotent).
// RecordRoute requires it.
func (m *Mesh) EnableOwnerTracking() {
	if m.lastUser == nil {
		m.lastUser = make([]int8, m.W*m.H*linkDirs)
	}
}

// RecordRoute stamps each link of the dimension-ordered route from src to
// dst with the owning tenant, walking the coordinates inline, and returns
// how many of the route's links were last used by a *different* tenant
// (the contention events of space-shared co-tenancy). Two tenants whose
// routes never share a directed link can never conflict, so disjoint
// placements provably report zero.
func (m *Mesh) RecordRoute(src, dst arch.Coord, order Order, owner int8) int64 {
	at := src
	var conflicts int64
	if order == XY {
		at, conflicts = m.stampRow(at, dst.X, owner, conflicts)
		_, conflicts = m.stampCol(at, dst.Y, owner, conflicts)
	} else {
		at, conflicts = m.stampCol(at, dst.Y, owner, conflicts)
		_, conflicts = m.stampRow(at, dst.X, owner, conflicts)
	}
	return conflicts
}

// stampRow stamps the horizontal links from at to (toX, at.Y), adds their
// conflicts, and returns the corner router.
func (m *Mesh) stampRow(at arch.Coord, toX int, owner int8, conflicts int64) (arch.Coord, int64) {
	dir, step := dirEast, 1
	if toX < at.X {
		dir, step = dirWest, -1
	}
	for at.X != toX {
		conflicts += m.stamp((at.Y*m.W+at.X)*linkDirs+dir, owner)
		at.X += step
	}
	return at, conflicts
}

// stampCol stamps the vertical links from at to (at.X, toY), adds their
// conflicts, and returns the corner router.
func (m *Mesh) stampCol(at arch.Coord, toY int, owner int8, conflicts int64) (arch.Coord, int64) {
	dir, step := dirSouth, 1
	if toY < at.Y {
		dir, step = dirNorth, -1
	}
	for at.Y != toY {
		conflicts += m.stamp((at.Y*m.W+at.X)*linkDirs+dir, owner)
		at.Y += step
	}
	return at, conflicts
}

// stamp marks link li as owner's and reports 1 if another tenant held it.
func (m *Mesh) stamp(li int, owner int8) int64 {
	u := m.lastUser[li]
	m.lastUser[li] = owner
	if u != 0 && u != owner {
		return 1
	}
	return 0
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
