package abc

import (
	"math"
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/sim"
	"ironhide/internal/vision"
)

func machine(t *testing.T) *sim.Machine {
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

func TestConvergesOnSphere(t *testing.T) {
	m := machine(t)
	c := NewColony(6, 24, 30, 1, 7, nil, Sphere)
	c.Init(m, m.NewSpace("ABC", arch.Secure))
	start := c.Best()
	g := gang(m, 8)
	for r := 0; r < 150; r++ {
		c.Round(g, r)
	}
	if c.Best() >= start {
		t.Fatalf("no improvement: %f -> %f", start, c.Best())
	}
	if c.Best() > start/10 {
		t.Fatalf("weak convergence: %f -> %f", start, c.Best())
	}
}

func TestBestMonotone(t *testing.T) {
	m := machine(t)
	c := NewColony(4, 16, 20, 1, 3, nil, Sphere)
	c.Init(m, m.NewSpace("ABC", arch.Secure))
	g := gang(m, 4)
	prev := c.Best()
	for r := 0; r < 40; r++ {
		c.Round(g, r)
		if c.Best() > prev+1e-12 {
			t.Fatalf("best worsened at round %d: %f -> %f", r, prev, c.Best())
		}
		prev = c.Best()
	}
}

func TestPathCostPrefersFreeLanes(t *testing.T) {
	width := 8
	field := make([]float64, width*8)
	// Obstacles fill lanes 4..7; lanes 0..3 are free.
	for y := 0; y < 8; y++ {
		for x := 4; x < width; x++ {
			field[y*width+x] = 1
		}
	}
	obj := PathCost(field, width)
	free := obj([]float64{1, 1, 1})
	blocked := obj([]float64{6, 6, 6})
	if free >= blocked {
		t.Fatalf("free path cost %f >= blocked %f", free, blocked)
	}
}

func TestVisionCoupledObjective(t *testing.T) {
	m := machine(t)
	p := vision.NewPipeline(64, 64, 9)
	p.Init(m, m.NewSpace("VISION", arch.Insecure))
	ig := m.NewGroup(arch.Insecure, []arch.CoreID{60, 61}, 0)
	p.Round(ig, 0)

	c := NewColony(5, 16, 20, 2, 5, p, nil)
	c.Init(m, m.NewSpace("ABC", arch.Secure))
	g := gang(m, 4)
	for r := 0; r < 20; r++ {
		p.Round(ig, r)
		c.Round(g, r)
	}
	if best := c.Best(); math.IsInf(best, 0) || math.IsNaN(best) {
		t.Fatalf("planner found no finite path cost: %v", best)
	}
	if g.MaxCycles() == 0 {
		t.Fatal("planning charged nothing")
	}
}

func TestDeterministic(t *testing.T) {
	run := func() float64 {
		m := machine(t)
		c := NewColony(4, 12, 15, 1, 21, nil, Sphere)
		c.Init(m, m.NewSpace("ABC", arch.Secure))
		g := gang(m, 4)
		for r := 0; r < 30; r++ {
			c.Round(g, r)
		}
		return c.Best()
	}
	if run() != run() {
		t.Fatal("nondeterministic colony")
	}
}

func TestMetadata(t *testing.T) {
	c := NewColony(2, 4, 5, 1, 1, nil, Sphere)
	if c.Name() != "ABC" || c.Domain() != arch.Secure || c.Threads() <= 0 {
		t.Fatal("metadata wrong")
	}
}
