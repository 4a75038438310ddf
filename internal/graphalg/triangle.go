package graphalg

import (
	"sort"

	"ironhide/internal/arch"
	"ironhide/internal/graphgen"
	"ironhide/internal/sim"
)

// TriangleCount is the secure TC process. It maintains an exact triangle
// count over the road network and, each round, recounts the triangles
// incident to the updated edges via sorted-adjacency intersection. The
// kernel is atomic-heavy (a shared counter per batch) and scans the whole
// adjacency of both endpoints, so it gains little from private-cache
// locality and suffers real synchronization overheads at high thread
// counts — which is why the paper's core-reallocation heuristic gives it
// only two secure cores.
type TriangleCount struct {
	resident
	gen *graphgen.Generator

	sorted   [][]int32 // sorted adjacency per vertex
	countBuf sim.Buffer
}

// NewTriangleCount builds the TC process over gen's road network.
func NewTriangleCount(gen *graphgen.Generator) *TriangleCount {
	return &TriangleCount{gen: gen}
}

// Name implements workload.Process.
func (*TriangleCount) Name() string { return "TC" }

// Domain implements workload.Process.
func (*TriangleCount) Domain() arch.Domain { return arch.Secure }

// Threads implements workload.Process.
func (*TriangleCount) Threads() int { return 48 }

// Init implements workload.Process.
func (t *TriangleCount) Init(m *sim.Machine, space *sim.AddressSpace) {
	t.alloc(space, t.gen.Graph())
	t.sorted = make([][]int32, t.g.N)
	for u := 0; u < t.g.N; u++ {
		adj := make([]int32, 0, t.g.Degree(u))
		for e := t.g.Offsets[u]; e < t.g.Offsets[u+1]; e++ {
			adj = append(adj, t.g.Edges[e])
		}
		sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
		t.sorted[u] = adj
	}
	t.countBuf = space.Alloc("counters", 4096)
}

// Round implements workload.Process.
func (t *TriangleCount) Round(g *sim.Group, round int) {
	updates := t.gen.Drain()
	t.applyUpdates(g, updates)

	// Recount triangles through every endpoint of an updated edge. The
	// shared batch counter is a real serialization point.
	var batch int64
	endpoints := make([]int32, 0, len(updates))
	for _, u := range updates {
		e := int(u.Edge) % t.g.EdgeCount()
		endpoints = append(endpoints, t.g.Edges[e])
	}
	g.ParFor(len(endpoints), 1, func(c *sim.Ctx, i int) {
		u := int(endpoints[i])
		t.touchNeighbors(c, u)
		local := t.countThrough(c, u)
		// A weight change affects triangles through the neighbors too.
		for _, v := range t.sorted[u] {
			local += t.countThrough(c, int(v))
		}
		batch += local
		c.Atomic(t.countBuf.Addr(0))
		// Frequent fine-grained synchronization: TC's defining cost.
		c.Atomic(t.countBuf.Addr(64))
	})
	g.Barrier()
	_ = batch
}

// countThrough recounts the triangles with u as their smallest vertex.
func (t *TriangleCount) countThrough(c *sim.Ctx, u int) int64 {
	var local int64
	for _, v := range t.sorted[u] {
		if v <= int32(u) {
			continue
		}
		local += t.intersect(c, u, int(v))
	}
	return local
}

// intersect counts common neighbors of u and v greater than v (each
// triangle counted once), charging adjacency reads.
func (t *TriangleCount) intersect(c *sim.Ctx, u, v int) int64 {
	a, b := t.sorted[u], t.sorted[v]
	var n int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if c != nil && (i+j)%4 == 0 {
			c.Read(t.edgeBuf.Index(int(t.g.Offsets[u])+i, 4))
			c.Read(t.edgeBuf.Index(int(t.g.Offsets[v])+j, 4))
			c.Compute(14)
		}
		switch {
		case a[i] == b[j]:
			if a[i] > int32(v) {
				n++
			}
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// CountAll exactly counts all triangles (u < v < w) of the current graph,
// uncharged: the reference count tests check on known topologies.
func (t *TriangleCount) CountAll() int64 {
	var total int64
	for u := 0; u < t.g.N; u++ {
		for _, v := range t.sorted[u] {
			if int(v) <= u {
				continue
			}
			total += t.intersect(nil, u, int(v))
		}
	}
	return total
}
