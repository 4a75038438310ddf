package trace

import (
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/sim"
	"ironhide/internal/workload"
)

// synthProc is a deterministic synthetic kernel exercising every recorded
// construct: allocations, ParFor chunks with reads/writes/computes,
// atomics, Seq sections, bare barriers, and an empty ParFor. Its work
// distribution is chunk-ordered, so its stream is gang-size-invariant —
// the property every real workload upholds.
type synthProc struct {
	domain arch.Domain
	a, b   sim.Buffer
	state  []int64 // real data mutated across rounds
}

func (p *synthProc) Name() string        { return "SYNTH" }
func (p *synthProc) Domain() arch.Domain { return p.domain }
func (p *synthProc) Threads() int        { return 6 }

func (p *synthProc) Init(m *sim.Machine, space *sim.AddressSpace) {
	p.a = space.Alloc("a", 3*4096)
	p.b = space.Alloc("b", 300) // odd size, rounds up to one page
	p.state = make([]int64, 64)
}

func (p *synthProc) Round(g *sim.Group, round int) {
	g.ParFor(40, 3, func(c *sim.Ctx, i int) {
		// Data-dependent access pattern evolving across rounds.
		p.state[i%64] += int64(i + round)
		off := int(p.state[i%64]*67) % p.a.Size
		c.Read(p.a.Addr(off))
		c.Compute(5)
		c.Compute(7) // coalesced with the 5 above
		if i%4 == 0 {
			c.Write(p.a.Addr((off + 128) % p.a.Size))
		}
		if i%8 == 0 {
			c.Atomic(p.b.Addr(0))
		}
	})
	g.Seq(func(c *sim.Ctx) {
		c.Read(p.b.Addr(64))
		c.Compute(100)
	})
	g.Barrier()
	g.ParFor(0, 1, func(c *sim.Ctx, i int) { panic("empty ParFor ran") })
}

func synthApp() *workload.App {
	return &workload.App{
		Name: "synth", Class: workload.User,
		Insecure: &synthProc{domain: arch.Insecure},
		Secure:   &synthProc{domain: arch.Secure},
		Rounds:   4, Warmup: 1, ProfileRounds: 2,
		PayloadBytes: 256, ReplyBytes: 128,
	}
}

func testCores(n int) []arch.CoreID {
	out := make([]arch.CoreID, n)
	for i := range out {
		out[i] = arch.CoreID(i)
	}
	return out
}

// runRounds drives one process for `rounds` rounds on a fresh gang of n
// cores per round (mirroring the driver's one-group-per-round pattern)
// and returns the final clock plus aggregate machine stats.
func runRounds(t *testing.T, proc workload.Process, gang, rounds int) (int64, sim.Machine) {
	t.Helper()
	m, err := sim.NewMachine(arch.TileGx72())
	if err != nil {
		t.Fatal(err)
	}
	space := m.NewSpace(proc.Name(), arch.Insecure)
	proc.Init(m, space)
	var clock int64
	for r := 0; r < rounds; r++ {
		g := m.NewGroup(arch.Insecure, testCores(gang), clock)
		proc.Round(g, r)
		clock = g.MaxCycles()
	}
	return clock, *m
}

func l1Stats(m *sim.Machine) (acc, miss int64) {
	for _, c := range m.AllCores() {
		st := m.L1(c).Stats()
		acc += st.Accesses
		miss += st.Misses
	}
	return acc, miss
}

// capture records the synthetic insecure process for `rounds` rounds at
// the given gang size.
func capture(t *testing.T, gang, rounds int) *Trace {
	t.Helper()
	app := synthApp()
	rec := NewRecorder(app, 1)
	wrapped := rec.App(app)
	m, err := sim.NewMachine(arch.TileGx72())
	if err != nil {
		t.Fatal(err)
	}
	space := m.NewSpace("synth", arch.Insecure)
	wrapped.Insecure.Init(m, space)
	var clock int64
	for r := 0; r < rounds; r++ {
		g := m.NewGroup(arch.Insecure, testCores(gang), clock)
		wrapped.Insecure.Round(g, r)
		clock = g.MaxCycles()
	}
	return rec.Trace()
}

// Replay must reproduce a live run cycle-for-cycle — at the recorded gang
// size and at every other gang size, because the binding search replays
// one capture across candidate cluster sizes.
func TestReplayMatchesLiveAcrossGangSizes(t *testing.T) {
	const rounds = 4
	tr := capture(t, 6, rounds)
	if tr.Captured() != rounds {
		t.Fatalf("captured %d rounds, want %d", tr.Captured(), rounds)
	}
	if tr.Bytes() == 0 {
		t.Fatal("empty stream")
	}
	for _, gang := range []int{1, 2, 3, 6, 13} {
		liveClock, liveM := runRounds(t, &synthProc{domain: arch.Insecure}, gang, rounds)
		replayClock, replayM := runRounds(t, tr.NewApp().Insecure, gang, rounds)
		if liveClock != replayClock {
			t.Fatalf("gang %d: replay clock %d != live %d", gang, replayClock, liveClock)
		}
		la, lm := l1Stats(&liveM)
		ra, rm := l1Stats(&replayM)
		if la != ra || lm != rm {
			t.Fatalf("gang %d: replay L1 %d/%d != live %d/%d", gang, ra, rm, la, lm)
		}
		l2l, l2r := liveM.L2().AggregateStats(), replayM.L2().AggregateStats()
		if l2l != l2r {
			t.Fatalf("gang %d: replay L2 %+v != live %+v", gang, l2r, l2l)
		}
	}
}

// Attaching the recorder must not perturb the run it observes.
func TestRecordingDoesNotPerturbTiming(t *testing.T) {
	app := synthApp()
	rec := NewRecorder(app, 1)
	recClock, _ := runRounds(t, rec.App(app).Insecure, 6, 3)
	liveClock, _ := runRounds(t, &synthProc{domain: arch.Insecure}, 6, 3)
	if recClock != liveClock {
		t.Fatalf("recording changed timing: %d vs %d", recClock, liveClock)
	}
}

// The replayed allocation schedule must reproduce the recorded page
// layout exactly — placement feeds homing, routing, and partitioning.
func TestAllocScheduleReproducesLayout(t *testing.T) {
	tr := capture(t, 6, 1)
	if len(tr.Ins.Allocs) != 2 {
		t.Fatalf("recorded %d allocs, want 2", len(tr.Ins.Allocs))
	}
	if tr.Ins.Allocs[0] != (Alloc{Name: "a", Size: 3 * 4096}) || tr.Ins.Allocs[1] != (Alloc{Name: "b", Size: 300}) {
		t.Fatalf("alloc schedule wrong: %+v", tr.Ins.Allocs)
	}
	m, err := sim.NewMachine(arch.TileGx72())
	if err != nil {
		t.Fatal(err)
	}
	tr.NewApp().Insecure.Init(m, m.NewSpace("replay", arch.Insecure))
	if got := m.PageCount(arch.Insecure); got != 4 {
		t.Fatalf("replayed %d pages, want 4", got)
	}
}

// Replay metadata must mirror the recorded application so the driver
// treats the replay app exactly like the live one.
func TestReplayAppMetadata(t *testing.T) {
	app := synthApp()
	tr := capture(t, 6, 1)
	rApp := tr.NewApp()
	if err := rApp.Validate(); err != nil {
		t.Fatal(err)
	}
	if rApp.Name != app.Name || rApp.Class != app.Class ||
		rApp.Rounds != app.Rounds || rApp.Warmup != app.Warmup ||
		rApp.ProfileRounds != app.ProfileRounds ||
		rApp.PayloadBytes != app.PayloadBytes || rApp.ReplyBytes != app.ReplyBytes {
		t.Fatalf("metadata mismatch: %+v vs %+v", rApp, app)
	}
	if rApp.Insecure.Name() != "SYNTH" || rApp.Insecure.Threads() != 6 {
		t.Fatal("process identity not preserved")
	}
	if rApp.Insecure.Domain() != arch.Insecure || rApp.Secure.Domain() != arch.Secure {
		t.Fatal("domains not preserved")
	}
}

// Requesting a round beyond the capture must fail loudly, not silently
// charge nothing.
func TestReplayBeyondCapturePanics(t *testing.T) {
	tr := capture(t, 6, 2)
	m, err := sim.NewMachine(arch.TileGx72())
	if err != nil {
		t.Fatal(err)
	}
	proc := tr.NewApp().Insecure
	proc.Init(m, m.NewSpace("replay", arch.Insecure))
	defer func() {
		if recover() == nil {
			t.Fatal("replay past the capture did not panic")
		}
	}()
	proc.Round(m.NewGroup(arch.Insecure, testCores(2), 0), 2)
}

// A warm replay round — lowering and gang plan already cached,
// machine state populated — must be allocation-free: the batch kernel
// charges pre-lowered runs straight through Machine.Access, and nothing
// on that path may touch the heap. The synthetic stream covers every
// construct (ParFor chunks, Seq sections, barriers, atomics, coalesced
// computes), so the zero-alloc property holds for the whole IR, not just
// straight-line loads.
func TestReplayZeroAllocSteadyState(t *testing.T) {
	tr := capture(t, 6, 4)
	m, err := sim.NewMachine(arch.TileGx72())
	if err != nil {
		t.Fatal(err)
	}
	proc := tr.NewApp().Insecure
	proc.Init(m, m.NewSpace("replay", arch.Insecure))
	g := m.NewGroup(arch.Insecure, testCores(6), 0)
	proc.Round(g, 0) // warm: builds the lowering and plan caches
	if n := testing.AllocsPerRun(10, func() {
		proc.Round(g, 0)
	}); n != 0 {
		t.Fatalf("warm replay round allocates %.2f objects, want 0", n)
	}
}
