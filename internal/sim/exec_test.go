package sim

import (
	"fmt"
	"reflect"
	"testing"

	"ironhide/internal/arch"
)

func cores(ids ...int) []arch.CoreID {
	out := make([]arch.CoreID, len(ids))
	for i, id := range ids {
		out[i] = arch.CoreID(id)
	}
	return out
}

func TestGroupBasics(t *testing.T) {
	m := newTestMachine(t)
	g := m.NewGroup(arch.Insecure, cores(0, 1, 2), 100)
	if g.Threads() != 3 || g.Start() != 100 || g.MaxCycles() != 100 {
		t.Fatalf("fresh group state wrong: %v", g)
	}
	g.Ctx(1).Compute(50)
	if g.MaxCycles() != 150 {
		t.Fatalf("MaxCycles = %d", g.MaxCycles())
	}
}

func TestGroupNeedsCores(t *testing.T) {
	m := newTestMachine(t)
	defer func() {
		if recover() == nil {
			t.Fatal("empty group did not panic")
		}
	}()
	m.NewGroup(arch.Insecure, nil, 0)
}

func TestBarrierSynchronizesAndCosts(t *testing.T) {
	m := newTestMachine(t)
	g := m.NewGroup(arch.Insecure, cores(0, 1, 2, 3), 0)
	g.Ctx(2).Compute(1000)
	g.Barrier()
	want := int64(1000) + g.BarrierCost()
	for tid := 0; tid < 4; tid++ {
		if got := g.Ctx(tid).Cycles(); got != want {
			t.Fatalf("thread %d at %d after barrier, want %d", tid, got, want)
		}
	}
	if g.BarrierCost() != 2*m.Cfg.BarrierBaseLat { // ceil(log2(4)) = 2
		t.Fatalf("barrier cost = %d", g.BarrierCost())
	}
}

func TestBarrierFreeForSingleThread(t *testing.T) {
	m := newTestMachine(t)
	g := m.NewGroup(arch.Insecure, cores(0), 0)
	if g.BarrierCost() != 0 {
		t.Fatal("singleton barrier should be free")
	}
}

func TestBarrierCostGrowsWithGangSize(t *testing.T) {
	m := newTestMachine(t)
	prev := int64(-1)
	for _, n := range []int{1, 2, 4, 16, 62} {
		ids := make([]arch.CoreID, n)
		for i := range ids {
			ids[i] = arch.CoreID(i)
		}
		g := m.NewGroup(arch.Insecure, ids, 0)
		if g.BarrierCost() < prev {
			t.Fatalf("barrier cost shrank at %d threads", n)
		}
		prev = g.BarrierCost()
	}
}

func TestParForCoversAllItemsOnce(t *testing.T) {
	m := newTestMachine(t)
	g := m.NewGroup(arch.Insecure, cores(0, 1, 2), 0)
	seen := make([]int, 10)
	g.ParFor(10, 2, func(c *Ctx, i int) {
		seen[i]++
		c.Compute(1)
	})
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("item %d executed %d times", i, n)
		}
	}
}

func TestParForDistributesAcrossThreads(t *testing.T) {
	m := newTestMachine(t)
	g := m.NewGroup(arch.Insecure, cores(0, 1, 2, 3), 0)
	byTID := map[int]int{}
	g.ParFor(16, 2, func(c *Ctx, i int) {
		byTID[c.TID]++
	})
	if len(byTID) != 4 {
		t.Fatalf("work landed on %d threads, want 4", len(byTID))
	}
	for tid, n := range byTID {
		if n != 4 {
			t.Fatalf("thread %d ran %d items, want 4", tid, n)
		}
	}
}

func TestParForEmpty(t *testing.T) {
	m := newTestMachine(t)
	g := m.NewGroup(arch.Insecure, cores(0, 1), 0)
	g.ParFor(0, 4, func(c *Ctx, i int) { t.Fatal("body ran") })
}

func TestSeqRunsOnThreadZero(t *testing.T) {
	m := newTestMachine(t)
	g := m.NewGroup(arch.Insecure, cores(5, 6), 0)
	var ran arch.CoreID
	g.Seq(func(c *Ctx) {
		ran = c.Core
		c.Compute(500)
	})
	if ran != 5 {
		t.Fatalf("Seq ran on core %d", ran)
	}
	// Barrier after Seq synchronizes the idle thread too.
	if g.Ctx(1).Cycles() < 500 {
		t.Fatal("Seq did not synchronize the gang")
	}
}

func TestAtomicContention(t *testing.T) {
	m := newTestMachine(t)
	pinToSlice0(m)
	buf := m.NewSpace("p", arch.Insecure).Alloc("ctr", 4096)

	solo := m.NewGroup(arch.Insecure, cores(0), 0)
	solo.Ctx(0).Atomic(buf.Addr(0))
	soloCost := solo.Ctx(0).Cycles()

	m2 := newTestMachine(t)
	pinToSlice0(m2)
	buf2 := m2.NewSpace("p", arch.Insecure).Alloc("ctr", 4096)
	gang := m2.NewGroup(arch.Insecure, cores(0, 1, 2, 3), 0)
	gang.Ctx(0).Atomic(buf2.Addr(0))
	gangCost := gang.Ctx(0).Cycles()

	if want := soloCost + 3*m.Cfg.AtomicContention; gangCost != want {
		t.Fatalf("contended atomic = %d, want %d", gangCost, want)
	}
}

// The trace replayer redistributes recorded chunks by chunk index: chunk
// k of a ParFor must run on thread k%t at every gang size, in chunk-index
// order. This pins the exact assignment, not just the per-thread counts.
func TestParForChunkThreadAssignment(t *testing.T) {
	m := newTestMachine(t)
	const n, chunk = 23, 3
	for _, gang := range []int{1, 2, 4, 7} {
		ids := make([]arch.CoreID, gang)
		for i := range ids {
			ids[i] = arch.CoreID(i)
		}
		g := m.NewGroup(arch.Insecure, ids, 0)
		var orderedItems []int
		g.ParFor(n, chunk, func(c *Ctx, i int) {
			k := i / chunk
			if want := k % gang; c.TID != want {
				t.Fatalf("gang %d: item %d (chunk %d) ran on thread %d, want %d", gang, i, k, c.TID, want)
			}
			orderedItems = append(orderedItems, i)
		})
		// Chunks execute in index order regardless of gang size — the
		// deterministic interleaving replay reproduces.
		for j := 1; j < len(orderedItems); j++ {
			if orderedItems[j] != orderedItems[j-1]+1 {
				t.Fatalf("gang %d: items out of order at %d: %v", gang, j, orderedItems[j-1:j+1])
			}
		}
		if len(orderedItems) != n {
			t.Fatalf("gang %d: %d items ran, want %d", gang, len(orderedItems), n)
		}
	}
}

// Atomic contention must scale linearly with gang size: the replayer
// re-applies it from the replay gang, so the formula — (t-1) extra
// AtomicContention cycles per operation — is a contract, not a detail.
func TestAtomicContentionScalesWithGangSize(t *testing.T) {
	costAt := func(gang int) int64 {
		m := newTestMachine(t)
		pinToSlice0(m)
		buf := m.NewSpace("p", arch.Insecure).Alloc("ctr", 4096)
		ids := make([]arch.CoreID, gang)
		for i := range ids {
			ids[i] = arch.CoreID(i)
		}
		g := m.NewGroup(arch.Insecure, ids, 0)
		g.Ctx(0).Atomic(buf.Addr(0))
		return g.Ctx(0).Cycles()
	}
	solo := costAt(1)
	for _, gang := range []int{2, 3, 8, 16} {
		m := newTestMachine(t)
		want := solo + int64(gang-1)*m.Cfg.AtomicContention
		if got := costAt(gang); got != want {
			t.Fatalf("gang %d: atomic cost %d, want %d", gang, got, want)
		}
	}
}

// Seq charges only thread 0 before the closing barrier, whatever the gang
// size — the replayer maps opSeq onto thread 0 unconditionally.
func TestSeqChargesOnlyThreadZero(t *testing.T) {
	m := newTestMachine(t)
	for _, gang := range []int{1, 2, 5} {
		ids := make([]arch.CoreID, gang)
		for i := range ids {
			ids[i] = arch.CoreID(i)
		}
		g := m.NewGroup(arch.Insecure, ids, 0)
		g.Seq(func(c *Ctx) {
			if c.TID != 0 {
				t.Fatalf("gang %d: Seq ran on thread %d", gang, c.TID)
			}
			c.Compute(700)
		})
		want := int64(700) + g.BarrierCost()
		for tid := 0; tid < gang; tid++ {
			if got := g.Ctx(tid).Cycles(); got != want {
				t.Fatalf("gang %d thread %d: %d cycles after Seq, want %d", gang, tid, got, want)
			}
		}
	}
}

// Determinism: identical programs on identical fresh machines produce
// identical cycle counts — the whole evaluation depends on this.
func TestDeterministicExecution(t *testing.T) {
	run := func() int64 {
		m, err := NewMachine(arch.TileGx72())
		if err != nil {
			t.Fatal(err)
		}
		buf := m.NewSpace("p", arch.Insecure).Alloc("a", 256*1024)
		g := m.NewGroup(arch.Insecure, cores(0, 1, 2, 3, 4, 5, 6, 7), 0)
		g.ParFor(4096, 16, func(c *Ctx, i int) {
			c.Read(buf.Addr((i * 67) % buf.Size))
			c.Write(buf.Addr((i * 131) % buf.Size))
			c.Compute(3)
		})
		return g.MaxCycles()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic execution: %d vs %d", a, b)
	}
	if a == 0 {
		t.Fatal("no work simulated")
	}
}

// formatEvents renders an event buffer as strings for inspection.
func formatEvents(b *EventBuf) []string {
	names := map[byte]string{
		EvCompute: "compute", EvRead: "read", EvWrite: "write", EvAtomic: "atomic",
		EvBarrier: "barrier", EvParFor: "parfor", EvChunk: "chunk", EvSeq: "seq",
	}
	out := make([]string, 0, b.Len())
	for i, code := range b.Codes {
		switch code {
		case EvBarrier, EvParFor, EvChunk, EvSeq:
			out = append(out, names[code])
		default:
			out = append(out, fmt.Sprintf("%s:%d", names[code], b.Args[i]))
		}
	}
	return out
}

// The capture buffer must see every construct exactly once, in execution
// order, with Atomic as one composite event (not its constituent
// read+write) and nothing appended after the buffer detaches.
func TestRecorderEventStream(t *testing.T) {
	m := newTestMachine(t)
	pinToSlice0(m)
	buf := m.NewSpace("p", arch.Insecure).Alloc("a", 4096)
	g := m.NewGroup(arch.Insecure, cores(0, 1), 0)
	var evb EventBuf
	g.SetEventBuf(&evb)
	g.ParFor(3, 2, func(c *Ctx, i int) {
		c.Read(buf.Addr(i * 64))
	})
	g.Seq(func(c *Ctx) { c.Atomic(buf.Addr(0)) })
	g.SetEventBuf(nil)
	g.ParFor(2, 1, func(c *Ctx, i int) { c.Compute(1) }) // not captured
	want := []string{
		"parfor", "chunk", "read:0", "read:64", "chunk", "read:128", "barrier",
		"seq", "atomic:0", "barrier",
	}
	if got := formatEvents(&evb); !reflect.DeepEqual(got, want) {
		t.Fatalf("event stream\n got %v\nwant %v", got, want)
	}
}

func TestReadsWritesCounted(t *testing.T) {
	m := newTestMachine(t)
	buf := m.NewSpace("p", arch.Insecure).Alloc("a", 4096)
	g := m.NewGroup(arch.Insecure, cores(0), 0)
	c := g.Ctx(0)
	c.Read(buf.Addr(0))
	c.Read(buf.Addr(64))
	c.Write(buf.Addr(128))
	if c.Reads != 2 || c.Writes != 1 {
		t.Fatalf("counted %d reads / %d writes", c.Reads, c.Writes)
	}
}
