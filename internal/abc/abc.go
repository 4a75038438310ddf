// Package abc implements the paper's secure mission-planning process: a
// self-adaptive Artificial Bee Colony (ABC) global optimizer (Xue et al.)
// searching for a low-cost waypoint path through an obstacle field derived
// from the perception input — the advanced driver-assistance scenario of
// the real-time perception and mission planning application.
package abc

import (
	"math"
	"math/rand"

	"ironhide/internal/arch"
	"ironhide/internal/sim"
	"ironhide/internal/vision"
)

// Objective is the function the colony minimizes over R^dim.
type Objective func(x []float64) float64

// Sphere is the classic convex test objective (minimum 0 at the origin);
// the tests verify convergence on it.
func Sphere(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

// PathCost builds a path-planning objective from an obstacle field: the
// decision vector encodes waypoint lateral offsets, and the cost is path
// length plus obstacle proximity penalties sampled from the field.
func PathCost(field []float64, width int) Objective {
	height := len(field) / width
	return func(x []float64) float64 {
		cost := 0.0
		prev := 0.0
		for i, off := range x {
			// Lateral positions are clamped to the field.
			lane := off
			if lane < 0 {
				lane = 0
			}
			if lane > float64(width-1) {
				lane = float64(width - 1)
			}
			y := (i + 1) * height / (len(x) + 1)
			if y >= height {
				y = height - 1
			}
			cost += math.Abs(lane-prev) + 1      // path length
			cost += 8 * field[y*width+int(lane)] // obstacle penalty
			prev = lane
		}
		return cost
	}
}

// Colony is the ABC secure process.
type Colony struct {
	dim, foods int
	limit      int
	gens       int // generations per interaction round
	rng        *rand.Rand
	objective  Objective

	foodsX  [][]float64
	fitness []float64
	trials  []int
	bestF   float64

	foodBuf  sim.Buffer
	fieldBuf sim.Buffer
	src      *vision.Pipeline
	field    []float64
	fieldW   int
}

// NewColony builds an ABC process with the given population searching dim
// dimensions, running gens generations per interaction round (the colony
// iterates until its per-frame budget); if src is non-nil the objective is
// rebuilt each round from the latest VISION frame, otherwise obj is used
// directly.
func NewColony(dim, foods, limit, gens int, seed int64, src *vision.Pipeline, obj Objective) *Colony {
	if gens < 1 {
		gens = 1
	}
	return &Colony{
		dim: dim, foods: foods, limit: limit, gens: gens,
		rng:       rand.New(rand.NewSource(seed)),
		objective: obj, src: src,
	}
}

// Name implements workload.Process.
func (*Colony) Name() string { return "ABC" }

// Domain implements workload.Process.
func (*Colony) Domain() arch.Domain { return arch.Secure }

// Threads implements workload.Process.
func (*Colony) Threads() int { return 32 }

// Init implements workload.Process.
func (c *Colony) Init(m *sim.Machine, space *sim.AddressSpace) {
	c.foodsX = make([][]float64, c.foods)
	c.fitness = make([]float64, c.foods)
	c.trials = make([]int, c.foods)
	for i := range c.foodsX {
		c.foodsX[i] = make([]float64, c.dim)
		for d := range c.foodsX[i] {
			c.foodsX[i][d] = c.rng.Float64()*20 - 10
		}
	}
	c.bestF = math.Inf(1)
	c.foodBuf = space.Alloc("food-sources", 8*c.foods*c.dim)
	c.fieldBuf = space.Alloc("obstacle-field", 8*64*64)
	c.field = make([]float64, 64*64)
	c.fieldW = 64
	if c.objective == nil {
		c.objective = Sphere
	}
	c.evaluateAll(nil)
}

func (c *Colony) evaluateAll(g *sim.Group) {
	eval := func(ctx *sim.Ctx, i int) {
		f := c.objective(c.foodsX[i])
		c.fitness[i] = f
		if f < c.bestF {
			c.bestF = f
		}
		if ctx != nil {
			for d := 0; d < c.dim; d += 8 {
				ctx.Read(c.foodBuf.Index(i*c.dim+d, 8))
			}
			ctx.Compute(int64(12 * c.dim))
		}
	}
	if g == nil {
		for i := range c.foodsX {
			eval(nil, i)
		}
		return
	}
	g.ParFor(c.foods, 2, eval)
}

// Round implements workload.Process: refresh the obstacle field from the
// latest frame, then run one employed/onlooker/scout generation.
func (c *Colony) Round(g *sim.Group, round int) {
	if c.src != nil {
		if frame := c.src.Output(); frame != nil {
			// Downsample the frame into the obstacle field.
			for y := 0; y < 64 && y < frame.H; y++ {
				for x := 0; x < 64 && x < frame.W; x++ {
					c.field[y*64+x] = float64(frame.Pix[y*frame.W+x])
				}
			}
			c.objective = PathCost(c.field, c.fieldW)
			g.ParFor(64, 8, func(ctx *sim.Ctx, y int) {
				for x := 0; x < 64; x += 8 {
					ctx.Write(c.fieldBuf.Index(y*64+x, 8))
				}
				ctx.Compute(32)
			})
		}
	}
	for gen := 0; gen < c.gens; gen++ {
		c.employedPhase(g, round*c.gens+gen)
		c.onlookerPhase(g, round*c.gens+gen)
		c.scoutPhase(g)
	}
}

// employedPhase: each employed bee perturbs its source toward a random
// partner and keeps the improvement (greedy selection).
func (c *Colony) employedPhase(g *sim.Group, round int) {
	partners := make([]int, c.foods)
	phis := make([]float64, c.foods)
	dims := make([]int, c.foods)
	for i := range partners {
		partners[i] = c.rng.Intn(c.foods)
		phis[i] = c.rng.Float64()*2 - 1
		dims[i] = c.rng.Intn(c.dim)
	}
	g.ParFor(c.foods, 2, func(ctx *sim.Ctx, i int) {
		d := dims[i]
		cand := append([]float64(nil), c.foodsX[i]...)
		cand[d] += phis[i] * (c.foodsX[i][d] - c.foodsX[partners[i]][d])
		f := c.objective(cand)
		for dd := 0; dd < c.dim; dd += 8 {
			ctx.Read(c.foodBuf.Index(i*c.dim+dd, 8))
		}
		ctx.Compute(int64(12 * c.dim))
		if f < c.fitness[i] {
			c.foodsX[i] = cand
			c.fitness[i] = f
			c.trials[i] = 0
			ctx.Write(c.foodBuf.Index(i*c.dim+d, 8))
			if f < c.bestF {
				c.bestF = f
			}
		} else {
			c.trials[i]++
		}
	})
}

// onlookerPhase: onlookers sample sources in proportion to quality and
// exploit the best ones again.
func (c *Colony) onlookerPhase(g *sim.Group, round int) {
	// Roulette selection (deterministic RNG on thread 0's schedule).
	chosen := make([]int, c.foods/2)
	var worst float64
	for _, f := range c.fitness {
		if f > worst {
			worst = f
		}
	}
	for i := range chosen {
		// Higher quality = lower fitness; invert for weights.
		r := c.rng.Float64() * float64(c.foods)
		chosen[i] = int(r) % c.foods
		if c.fitness[chosen[i]] > worst/2 {
			chosen[i] = c.rng.Intn(c.foods)
		}
	}
	g.ParFor(len(chosen), 2, func(ctx *sim.Ctx, k int) {
		i := chosen[k]
		d := (k + i) % c.dim
		phi := float64((k*2654435761)%2001-1000) / 1000
		partner := (i + 1 + k) % c.foods
		cand := append([]float64(nil), c.foodsX[i]...)
		cand[d] += phi * (c.foodsX[i][d] - c.foodsX[partner][d])
		f := c.objective(cand)
		for dd := 0; dd < c.dim; dd += 8 {
			ctx.Read(c.foodBuf.Index(i*c.dim+dd, 8))
		}
		ctx.Compute(int64(12 * c.dim))
		if f < c.fitness[i] {
			c.foodsX[i] = cand
			c.fitness[i] = f
			c.trials[i] = 0
			ctx.Write(c.foodBuf.Index(i*c.dim+d, 8))
			if f < c.bestF {
				c.bestF = f
			}
		} else {
			c.trials[i]++
		}
	})
}

// scoutPhase: exhausted sources are abandoned and re-seeded randomly.
func (c *Colony) scoutPhase(g *sim.Group) {
	g.Seq(func(ctx *sim.Ctx) {
		for i := range c.trials {
			if c.trials[i] <= c.limit {
				continue
			}
			for d := range c.foodsX[i] {
				c.foodsX[i][d] = c.rng.Float64()*20 - 10
			}
			c.fitness[i] = c.objective(c.foodsX[i])
			c.trials[i] = 0
			ctx.Write(c.foodBuf.Index(i*c.dim, 8))
			ctx.Compute(int64(12 * c.dim))
		}
	})
}

// Best returns the best objective value found so far.
func (c *Colony) Best() float64 { return c.bestF }
