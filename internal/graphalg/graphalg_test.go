package graphalg

import (
	"container/heap"
	"math"
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/graphgen"
	"ironhide/internal/sim"
)

func newMachine(t *testing.T) *sim.Machine {
	t.Helper()
	m, err := sim.NewMachine(arch.TileGx72())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func gang(m *sim.Machine, n int) *sim.Group {
	ids := make([]arch.CoreID, n)
	for i := range ids {
		ids[i] = arch.CoreID(i)
	}
	return m.NewGroup(arch.Secure, ids, 0)
}

// --- Dijkstra oracle ---

type pqItem struct {
	v int
	d float32
}
type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].d < p[j].d }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	x := old[n-1]
	*p = old[:n-1]
	return x
}

func dijkstra(g *graphgen.Graph, src int) []float32 {
	dist := make([]float32, g.N)
	for i := range dist {
		dist[i] = float32(math.Inf(1))
	}
	dist[src] = 0
	q := &pq{{src, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.d > dist[it.v] {
			continue
		}
		for e := g.Offsets[it.v]; e < g.Offsets[it.v+1]; e++ {
			v := int(g.Edges[e])
			if nd := it.d + g.Weights[e]; nd < dist[v] {
				dist[v] = nd
				heap.Push(q, pqItem{v, nd})
			}
		}
	}
	return dist
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	m := newMachine(t)
	g := graphgen.NewRoadNetwork(12, 12, 20, 5)
	gen := graphgen.NewGenerator(g, 16, 7)
	s := NewSSSP(gen, 0, 2)
	gen.Init(m, m.NewSpace("GRAPH", arch.Insecure))
	s.Init(m, m.NewSpace("SSSP", arch.Secure))
	s.RunToFixpoint(nil)
	oracle := dijkstra(g, 0)
	for v := 0; v < g.N; v++ {
		if math.Abs(float64(s.Dist(v)-oracle[v])) > 1e-3 {
			t.Fatalf("dist[%d] = %f, oracle %f", v, s.Dist(v), oracle[v])
		}
	}
}

func TestSSSPRoundsConvergeTowardOracle(t *testing.T) {
	m := newMachine(t)
	g := graphgen.NewRoadNetwork(10, 10, 10, 5)
	gen := graphgen.NewGenerator(g, 8, 7)
	s := NewSSSP(gen, 0, 3)
	gen.Init(m, m.NewSpace("GRAPH", arch.Insecure))
	s.Init(m, m.NewSpace("SSSP", arch.Secure))
	grp := gang(m, 8)
	ins := m.NewGroup(arch.Insecure, []arch.CoreID{8, 9}, 0)
	for r := 0; r < 30; r++ {
		gen.Round(ins, r)
		s.Round(grp, r)
	}
	// Monotone relaxation invariants: the source stays at zero, no
	// distance is negative, and (the grid being connected) every vertex
	// was reached by the full solver at least once.
	if s.Dist(0) != 0 {
		t.Fatalf("source distance drifted to %f", s.Dist(0))
	}
	for v := 0; v < g.N; v++ {
		if d := s.Dist(v); d < 0 {
			t.Fatalf("negative distance at %d: %f", v, d)
		}
	}
	s.RunToFixpoint(nil)
	// After a fixpoint pass every vertex is reachable and bounded by the
	// all-edges-max-weight diameter.
	maxW := float32(0)
	for _, w := range g.Weights {
		if w > maxW {
			maxW = w
		}
	}
	bound := maxW * float32(g.N)
	for v := 0; v < g.N; v++ {
		if d := s.Dist(v); d > bound {
			t.Fatalf("dist[%d]=%f exceeds any simple path bound %f", v, d, bound)
		}
	}
	if grp.MaxCycles() == 0 {
		t.Fatal("SSSP rounds charged nothing")
	}
}

func TestPageRankConverges(t *testing.T) {
	m := newMachine(t)
	g := graphgen.NewRoadNetwork(10, 10, 15, 2)
	gen := graphgen.NewGenerator(g, 8, 3)
	p := NewPageRank(gen, 0.85, 8)
	gen.Init(m, m.NewSpace("GRAPH", arch.Insecure))
	p.Init(m, m.NewSpace("PR", arch.Secure))
	delta := p.RunIterations(60)
	if delta > 1e-6 {
		t.Fatalf("PR did not converge: last delta %g", delta)
	}
	if s := p.RankSum(); math.Abs(s-1) > 1e-2 {
		t.Fatalf("rank mass = %f, want ~1", s)
	}
	// A well-connected hub must outrank a corner on a symmetric grid.
	if p.Rank(5*10+5) <= 0 {
		t.Fatal("interior vertex has nonpositive rank")
	}
}

func TestPageRankRoundWindowsCoverGraph(t *testing.T) {
	m := newMachine(t)
	g := graphgen.NewRoadNetwork(8, 8, 0, 2)
	gen := graphgen.NewGenerator(g, 4, 3)
	p := NewPageRank(gen, 0.85, 4)
	gen.Init(m, m.NewSpace("GRAPH", arch.Insecure))
	p.Init(m, m.NewSpace("PR", arch.Secure))
	grp := gang(m, 4)
	ins := m.NewGroup(arch.Insecure, []arch.CoreID{60, 61}, 0)
	before := p.Rank(0)
	for r := 0; r < 8; r++ { // two full window rotations
		gen.Round(ins, r)
		p.Round(grp, r)
	}
	if p.Rank(0) == before {
		t.Fatal("vertex 0 rank never updated across window rotations")
	}
	if s := p.RankSum(); s < 0.5 || s > 1.5 {
		t.Fatalf("rank mass drifted to %f", s)
	}
}

// Known topology: a triangle plus a pendant vertex has exactly 1 triangle.
func triangleGraph() *graphgen.Graph {
	// Build via road network then overwrite: easier to construct raw CSR.
	g := &graphgen.Graph{
		N:       4,
		Offsets: []int32{0, 2, 5, 7, 8},
		Edges:   []int32{1, 2, 0, 2, 3, 0, 1, 1},
		Weights: []float32{1, 1, 1, 1, 1, 1, 1, 1},
	}
	return g
}

func TestTriangleCountExact(t *testing.T) {
	m := newMachine(t)
	gen := graphgen.NewGenerator(triangleGraph(), 2, 1)
	tc := NewTriangleCount(gen)
	gen.Init(m, m.NewSpace("GRAPH", arch.Insecure))
	tc.Init(m, m.NewSpace("TC", arch.Secure))
	if got := tc.CountAll(); got != 1 {
		t.Fatalf("triangle count = %d, want 1", got)
	}
}

func TestTriangleCountGridHasNone(t *testing.T) {
	m := newMachine(t)
	g := graphgen.NewRoadNetwork(8, 8, 0, 1) // pure grid: no triangles
	gen := graphgen.NewGenerator(g, 4, 1)
	tc := NewTriangleCount(gen)
	gen.Init(m, m.NewSpace("GRAPH", arch.Insecure))
	tc.Init(m, m.NewSpace("TC", arch.Secure))
	if got := tc.CountAll(); got != 0 {
		t.Fatalf("grid triangle count = %d, want 0", got)
	}
}

func TestTriangleRoundRuns(t *testing.T) {
	m := newMachine(t)
	g := graphgen.NewRoadNetwork(10, 10, 30, 4)
	gen := graphgen.NewGenerator(g, 16, 4)
	tc := NewTriangleCount(gen)
	gen.Init(m, m.NewSpace("GRAPH", arch.Insecure))
	tc.Init(m, m.NewSpace("TC", arch.Secure))
	ins := m.NewGroup(arch.Insecure, []arch.CoreID{60}, 0)
	grp := gang(m, 8)
	gen.Round(ins, 0)
	tc.Round(grp, 0)
	if grp.MaxCycles() == 0 {
		t.Fatal("TC round charged nothing")
	}
}

// TC's atomic-heavy kernel must lose parallel efficiency as the gang
// grows — the behaviour that drives the paper's 2-core allocation.
func TestTriangleSyncOverheadGrowsWithThreads(t *testing.T) {
	perThreadTime := func(threads int) int64 {
		m := newMachine(t)
		g := graphgen.NewRoadNetwork(10, 10, 30, 4)
		gen := graphgen.NewGenerator(g, 32, 4)
		tc := NewTriangleCount(gen)
		gen.Init(m, m.NewSpace("GRAPH", arch.Insecure))
		tc.Init(m, m.NewSpace("TC", arch.Secure))
		ins := m.NewGroup(arch.Insecure, []arch.CoreID{63}, 0)
		grp := gang(m, threads)
		var total int64
		for r := 0; r < 4; r++ {
			gen.Round(ins, r)
			start := grp.MaxCycles()
			tc.Round(grp, r)
			total += grp.MaxCycles() - start
		}
		return total
	}
	small := perThreadTime(2)
	large := perThreadTime(48)
	if float64(large) < float64(small)*0.30 {
		t.Fatalf("TC sped up too well with 48 threads (%d -> %d); atomics should bound it", small, large)
	}
}

func TestProcessMetadataAll(t *testing.T) {
	gen := graphgen.NewGenerator(triangleGraph(), 1, 1)
	for _, p := range []interface {
		Name() string
		Domain() arch.Domain
		Threads() int
	}{NewSSSP(gen, 0, 1), NewPageRank(gen, 0.85, 4), NewTriangleCount(gen)} {
		if p.Domain() != arch.Secure || p.Threads() <= 0 || p.Name() == "" {
			t.Fatalf("%s metadata wrong", p.Name())
		}
	}
}
