package sim

import (
	"fmt"
	"math/bits"

	"ironhide/internal/arch"
)

// Event codes of the execution event stream. They double as the opcodes of
// the trace IR (the trace package aliases them), so a captured event
// buffer batch-encodes without translation.
const (
	EvCompute byte = iota
	EvRead
	EvWrite
	EvAtomic
	EvBarrier
	EvParFor
	EvChunk
	EvSeq
)

// EventBuf is the buffered capture sink: parallel code/argument arrays the
// gang appends every charge and structural marker to while attached. It
// replaces the former per-op Recorder interface — appending two array
// elements inlines into the execution hot path, so capture costs barely
// more than live execution; the varint encode happens once per round in a
// batch pass over the buffer (see trace.Recorder).
type EventBuf struct {
	Codes []byte
	Args  []int64 // address for memory ops, cycles for computes, 0 for markers
}

// Reset empties the buffer, keeping capacity.
func (b *EventBuf) Reset() {
	b.Codes = b.Codes[:0]
	b.Args = b.Args[:0]
}

// Len returns the number of buffered events.
func (b *EventBuf) Len() int { return len(b.Codes) }

// push appends one event.
func (b *EventBuf) push(code byte, arg int64) {
	b.Codes = append(b.Codes, code)
	b.Args = append(b.Args, arg)
}

// Ctx is the execution context of one simulated thread: a core binding, a
// security domain, and a logical cycle clock. Workload kernels perform
// their real computation on ordinary Go data and charge the model through
// Read/Write/Compute.
type Ctx struct {
	m      *Machine
	group  *Group
	evb    *EventBuf
	TID    int
	Core   arch.CoreID
	Domain arch.Domain
	cycles int64
}

// Cycles returns the thread's logical clock.
func (c *Ctx) Cycles() int64 { return c.cycles }

// Compute charges n cycles of pure computation.
func (c *Ctx) Compute(n int64) {
	if c.evb != nil {
		c.evb.push(EvCompute, n)
	}
	c.cycles += n
}

// Read charges one load of addr.
func (c *Ctx) Read(addr arch.Addr) {
	if c.evb != nil {
		c.evb.push(EvRead, int64(addr))
	}
	c.read(addr)
}

// read charges the load without capturing (Atomic captures itself as one
// composite operation).
func (c *Ctx) read(addr arch.Addr) {
	if c.m.liteExec {
		c.cycles += c.m.Cfg.L1HitLat
		return
	}
	c.cycles += c.m.Access(c.Core, addr, false, c.Domain, c.cycles)
}

// Write charges one store to addr.
func (c *Ctx) Write(addr arch.Addr) {
	if c.evb != nil {
		c.evb.push(EvWrite, int64(addr))
	}
	c.write(addr)
}

// write charges the store without capturing.
func (c *Ctx) write(addr arch.Addr) {
	if c.m.liteExec {
		c.cycles += c.m.Cfg.L1HitLat
		return
	}
	c.cycles += c.m.Access(c.Core, addr, true, c.Domain, c.cycles)
}

// Atomic charges one read-modify-write of addr plus the serialization
// penalty of contending with the group's other threads — the cost that
// makes barrier- and atomic-heavy kernels (the paper's TC) prefer small
// clusters. The contention term scales with the gang executing the
// operation, so a replayer re-applies it from the replay gang size rather
// than the recorded one.
func (c *Ctx) Atomic(addr arch.Addr) {
	if c.evb != nil {
		c.evb.push(EvAtomic, int64(addr))
	}
	c.read(addr)
	c.write(addr)
	if c.group != nil && len(c.group.ctxs) > 1 {
		c.cycles += int64(len(c.group.ctxs)-1) * c.m.Cfg.AtomicContention
	}
}

// Group is a gang of threads pinned one-per-core on a set of cores,
// executing deterministically. It is the unit the driver schedules: a
// process's threads for one interaction round form one group.
type Group struct {
	m      *Machine
	Domain arch.Domain
	ctxs   []*Ctx
	start  int64
	evb    *EventBuf

	// addrOff shifts every *replayed* trace address charged through this
	// gang (ReplayRun and the trace package's per-op replayer). A trace is
	// captured on a machine whose pages start at address zero; replaying it
	// as the i-th tenant of a space-shared co-run places the tenant's pages
	// at a later base, and the page-aligned offset maps recorded addresses
	// onto the tenant's own pages. Live charges (Ctx.Read and friends, the
	// IPC ring) are never shifted — they already use real addresses.
	addrOff arch.Addr
}

// NewGroup pins one thread on each of the given cores, all starting their
// clocks at start.
//
// Groups come from a per-machine arena: Machine.Reset rewinds a cursor and
// subsequent NewGroup calls hand back the same Group and Ctx objects,
// reinitialized field-for-field, so a recycled machine's steady state — a
// binding search creating a few gangs per probe — allocates nothing here.
func (m *Machine) NewGroup(d arch.Domain, cores []arch.CoreID, start int64) *Group {
	if len(cores) == 0 {
		panic("sim: group needs at least one core")
	}
	var g *Group
	if m.groupNext < len(m.groupArena) {
		g = m.groupArena[m.groupNext]
	} else {
		g = &Group{}
		m.groupArena = append(m.groupArena, g)
	}
	m.groupNext++
	g.m = m
	g.Domain = d
	g.start = start
	g.evb = nil
	g.addrOff = 0
	if cap(g.ctxs) < len(cores) {
		g.ctxs = make([]*Ctx, len(cores))
	} else {
		g.ctxs = g.ctxs[:len(cores)]
	}
	for i, core := range cores {
		c := g.ctxs[i]
		if c == nil {
			c = &Ctx{}
			g.ctxs[i] = c
		}
		*c = Ctx{m: m, group: g, TID: i, Core: core, Domain: d, cycles: start}
	}
	return g
}

// SetEventBuf attaches (or, with nil, detaches) a capture buffer to the
// gang and all its threads. While attached, every charge and structural
// event is appended to it in execution order.
func (g *Group) SetEventBuf(b *EventBuf) {
	g.evb = b
	for _, c := range g.ctxs {
		c.evb = b
	}
}

// Capturing reports whether an event buffer is attached.
func (g *Group) Capturing() bool { return g.evb != nil }

// SetAddrOffset installs the page-aligned base offset applied to every
// replayed trace address (see the addrOff field). Zero (the default)
// replays addresses verbatim.
func (g *Group) SetAddrOffset(off arch.Addr) { g.addrOff = off }

// AddrOffset returns the gang's replay address offset.
func (g *Group) AddrOffset() arch.Addr { return g.addrOff }

// Restart rewinds every thread clock to start for a new execution phase,
// reusing the gang's contexts. The driver recycles two gangs across all of
// a run's rounds instead of allocating fresh Ctx sets per round.
func (g *Group) Restart(start int64) {
	g.start = start
	for _, c := range g.ctxs {
		c.cycles = start
	}
}

// Threads returns the gang size.
func (g *Group) Threads() int { return len(g.ctxs) }

// Start returns the gang's phase start time.
func (g *Group) Start() int64 { return g.start }

// Ctx returns thread tid's context.
func (g *Group) Ctx(tid int) *Ctx { return g.ctxs[tid] }

// MaxCycles returns the latest thread clock — the gang's completion time.
func (g *Group) MaxCycles() int64 {
	worst := g.start
	for _, c := range g.ctxs {
		if c.cycles > worst {
			worst = c.cycles
		}
	}
	return worst
}

// Barrier synchronizes the gang: every thread advances to the maximum
// clock plus the barrier cost, which grows logarithmically with gang size
// (a tournament barrier).
func (g *Group) Barrier() {
	if g.evb != nil {
		g.evb.push(EvBarrier, 0)
	}
	target := g.MaxCycles() + g.BarrierCost()
	for _, c := range g.ctxs {
		c.cycles = target
	}
}

// BarrierCost returns the cost of one barrier for this gang size.
func (g *Group) BarrierCost() int64 {
	if len(g.ctxs) <= 1 {
		return 0
	}
	return g.m.Cfg.BarrierBaseLat * int64(bits.Len(uint(len(g.ctxs)-1)))
}

// ParFor executes body for every i in [0, n), splitting the iterations
// into chunks distributed round-robin over the gang's threads. Chunks are
// executed in index order with rotating thread clocks, which interleaves
// the threads' memory traffic deterministically — an approximation of
// concurrent execution that keeps runs reproducible. A barrier closes the
// loop.
func (g *Group) ParFor(n, chunk int, body func(c *Ctx, i int)) {
	if g.evb != nil {
		g.evb.push(EvParFor, 0)
	}
	if n <= 0 {
		g.Barrier()
		return
	}
	if chunk <= 0 {
		chunk = 1
	}
	t := len(g.ctxs)
	nChunks := (n + chunk - 1) / chunk
	for k := 0; k < nChunks; k++ {
		if g.evb != nil {
			g.evb.push(EvChunk, 0)
		}
		c := g.ctxs[k%t]
		hi := (k + 1) * chunk
		if hi > n {
			hi = n
		}
		for i := k * chunk; i < hi; i++ {
			body(c, i)
		}
	}
	g.Barrier()
}

// Seq executes body on thread 0 alone, then synchronizes the gang — the
// serial sections of a kernel.
func (g *Group) Seq(body func(c *Ctx)) {
	if g.evb != nil {
		g.evb.push(EvSeq, 0)
	}
	body(g.ctxs[0])
	g.Barrier()
}

// ReplayRun charges a pre-lowered run of same-thread operations — parallel
// code/argument arrays holding only EvCompute/EvRead/EvWrite/EvAtomic —
// through thread tid. This is the batch replay kernel: the thread clock is
// held in a local across the run and the per-op Ctx dispatch, capture
// checks, and marker interpretation of the generic path all disappear. The
// replay-plan lowering in the trace package guarantees the semantics match
// the per-op path exactly: thread switches and barriers only ever occur
// between runs. It never captures and never runs in lite-exec mode: the
// trace replayer sends a capturing gang down the per-op path, and lite
// execution serves only the live capture of a catalog app.
func (g *Group) ReplayRun(tid int, codes []byte, args []int64) {
	c := g.ctxs[tid]
	off := g.addrOff
	m := c.m
	core := c.Core
	d := c.Domain
	cycles := c.cycles
	contention := int64(len(g.ctxs)-1) * m.Cfg.AtomicContention
	for j, code := range codes {
		switch code {
		case EvRead:
			cycles += m.Access(core, arch.Addr(args[j])+off, false, d, cycles)
		case EvWrite:
			cycles += m.Access(core, arch.Addr(args[j])+off, true, d, cycles)
		case EvCompute:
			cycles += args[j]
		case EvAtomic:
			a := arch.Addr(args[j]) + off
			cycles += m.Access(core, a, false, d, cycles)
			cycles += m.Access(core, a, true, d, cycles)
			cycles += contention
		}
	}
	c.cycles = cycles
}

// String summarizes the gang.
func (g *Group) String() string {
	return fmt.Sprintf("group(%v, %d threads, start %d)", g.Domain, len(g.ctxs), g.start)
}
