// Package trace records one execution of an interactive application as a
// compact operation-stream IR and replays it against a fresh machine —
// the record-once/replay-many engine behind payload-free binding search.
//
// The paper's evaluation repeatedly times the *same* application under
// many cluster bindings: the gradient heuristic probes up to ~10
// candidates and the Figure 8 Optimal oracle evaluates all 63. The
// address stream a workload charges is deterministic and independent of
// both the security model (models move pages between regions and slices
// but never change which addresses a kernel touches) and the gang sizes
// (kernels distribute work per ParFor chunk, and chunk contents do not
// depend on which thread runs them). So the full Go payload — PageRank
// relaxations, neural forward passes, AES rounds — only needs to execute
// once per (application, scale). Every subsequent probe replays the
// recorded stream through sim.Machine.Access on its own fresh machine,
// reproducing byte-identical timing, cache, and isolation behavior.
//
// The IR is a varint-encoded byte stream per (process, round). Memory
// operations carry zigzag-encoded address deltas; structural markers
// (ParFor start, chunk boundary, Seq section, barrier) let the replayer
// redistribute chunks k%t across a gang of any size, exactly as
// Group.ParFor does live. Atomic operations are recorded as one composite
// op and re-applied with the *replay* gang's contention term; barrier
// costs likewise come from the replay gang size.
//
// Replay does not interpret the markers per op. Each round is lowered
// once into a flat SoA form (opcode/argument arrays with the markers
// stripped into a positional skeleton), and per gang size that skeleton
// resolves into maximal same-thread runs — so the inner loop is
// sim.Group.ReplayRun charging a contiguous array slice, with no chunk%t
// arithmetic, no per-op dispatch, and no capture checks. Plans are cached
// on the Proc: all 63 Optimal-oracle probes and every concurrent scenario
// tenant share one lowering.
package trace

import (
	"encoding/binary"
	"fmt"
	"sync"

	"ironhide/internal/arch"
	"ironhide/internal/sim"
	"ironhide/internal/workload"
)

// Opcodes of the operation-stream IR. They are identical to the execution
// engine's event codes (sim.Ev*), so a captured event buffer encodes — and
// a lowered plan replays — without translation. Operand encodings:
//
//	opCompute  uvarint cycle count (consecutive Computes are coalesced)
//	opRead     zigzag varint delta from the previous operand address
//	opWrite    zigzag varint address delta
//	opAtomic   zigzag varint address delta (replayed as Ctx.Atomic)
//	opBarrier  none — replayed as Group.Barrier (cost from replay gang)
//	opParFor   none — resets the chunk counter of the k%t distribution
//	opChunk    none — advances the chunk counter; ops that follow run on
//	           thread chunk%t of the replay gang
//	opSeq      none — ops that follow run on thread 0
const (
	opCompute = sim.EvCompute
	opRead    = sim.EvRead
	opWrite   = sim.EvWrite
	opAtomic  = sim.EvAtomic
	opBarrier = sim.EvBarrier
	opParFor  = sim.EvParFor
	opChunk   = sim.EvChunk
	opSeq     = sim.EvSeq
)

// Alloc is one recorded AddressSpace.Alloc call. Re-issuing the schedule
// in order reproduces the exact page table of the recorded run, because
// page placement depends only on the allocation order, sizes, and the
// owning domains.
type Alloc struct {
	Name string
	Size int
}

// Proc is the recorded half of an application: one process's allocation
// schedule and its per-round operation streams.
type Proc struct {
	Name    string
	Threads int
	Allocs  []Alloc
	Rounds  [][]byte

	// lowered is the replay form of Rounds, built once on first use
	// straight from the varint streams: SoA op arrays plus a positional
	// marker skeleton — the gang-size-independent part of the replay
	// plan, shared by every gang's run table. It is the only expanded form
	// a Proc keeps; the per-op reference replayer decodes on demand.
	lowerOnce sync.Once
	lowered   []loweredRound

	// plans caches the per-gang-size run tables (see plan.go). Probes
	// replay a trace many times (up to 63 for the Optimal oracle,
	// concurrently under a worker pool), so each (trace, gang size) pays
	// the lowering exactly once.
	planMu sync.Mutex
	plans  map[int]*gangPlan
}

// decodedRound holds one round's stream as parallel arrays: ops[j] is the
// opcode, args[j] its operand (absolute address for memory ops, cycle
// count for computes, unused for markers).
type decodedRound struct {
	ops  []byte
	args []int64
}

// countOps sizes a stream's expanded arrays exactly: one op per
// non-operand byte, markers counted separately. The scan only skips varint
// continuation bytes; validation is readOp's job, and malformed inputs
// just produce a harmless bound.
func countOps(stream []byte) (ops, markers int) {
	for i := 0; i < len(stream); {
		code := stream[i]
		i++
		switch code {
		case opCompute, opRead, opWrite, opAtomic:
			for i < len(stream) && stream[i]&0x80 != 0 {
				i++
			}
			i++
		case opBarrier, opParFor, opChunk, opSeq:
			markers++
		}
		ops++
	}
	return ops, markers
}

// readOp decodes the op starting at stream[i] (i < len(stream)): its
// opcode, its operand (cycle count for computes, absolute address for
// memory ops, 0 for markers), the running address the next memory op's
// delta applies to, and the offset of the next op. Unknown opcodes and
// truncated or overlong varint operands are errors; no input makes it
// panic. It is the one decoder of the stream format.
func readOp(stream []byte, i int, prev int64) (code byte, arg, addr int64, next int, err error) {
	code = stream[i]
	i++
	switch code {
	case opCompute:
		u, w := binary.Uvarint(stream[i:])
		if w <= 0 {
			return 0, 0, 0, 0, fmt.Errorf("bad operand for opcode %d at offset %d", code, i)
		}
		return code, int64(u), prev, i + w, nil
	case opRead, opWrite, opAtomic:
		v, w := binary.Varint(stream[i:])
		if w <= 0 {
			return 0, 0, 0, 0, fmt.Errorf("bad operand for opcode %d at offset %d", code, i)
		}
		return code, prev + v, prev + v, i + w, nil
	case opBarrier, opParFor, opChunk, opSeq:
		// markers carry no operand
		return code, 0, prev, i, nil
	}
	return 0, 0, 0, 0, fmt.Errorf("unknown opcode %d at offset %d", code, i-1)
}

// decodeStream decodes one round's operation stream into its flat per-op
// form, markers included, reporting corruption as an error. Only the
// per-op reference replayer reads this form.
func decodeStream(stream []byte) (decodedRound, error) {
	n, _ := countOps(stream)
	d := decodedRound{ops: make([]byte, 0, n), args: make([]int64, 0, n)}
	var prev, arg int64
	var code byte
	var err error
	for i := 0; i < len(stream); {
		if code, arg, prev, i, err = readOp(stream, i, prev); err != nil {
			return decodedRound{}, err
		}
		d.ops = append(d.ops, code)
		d.args = append(d.args, arg)
	}
	return d, nil
}

// ValidateStream checks that b is a well-formed operation stream — the
// codec-level guard a service can run on untrusted trace bytes before
// handing them to the replayer (whose lowering treats corruption as a
// panic-worthy invariant violation). It allocates nothing.
func ValidateStream(b []byte) error {
	var prev int64
	var err error
	for i := 0; i < len(b); {
		if _, _, prev, i, err = readOp(b, i, prev); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks every round of both processes' operation streams.
func (t *Trace) Validate() error {
	for _, p := range []*Proc{&t.Ins, &t.Sec} {
		for r, stream := range p.Rounds {
			if err := ValidateStream(stream); err != nil {
				return fmt.Errorf("trace: %s round %d: %w", p.Name, r, err)
			}
		}
	}
	return nil
}

// Bytes returns the encoded size of the process's operation streams.
func (p *Proc) Bytes() int {
	n := 0
	for _, r := range p.Rounds {
		n += len(r)
	}
	return n
}

// Trace is one recorded execution of an application at one scale. It
// carries everything needed to rebuild an equivalent workload.App whose
// processes replay the streams instead of executing the payload.
type Trace struct {
	App   string
	Class workload.Class
	Scale float64 // the Options.Scale the capture ran at

	Rounds        int // measured rounds of the scaled app
	Warmup        int
	ProfileRounds int
	PayloadBytes  int
	ReplyBytes    int

	Ins, Sec Proc
}

// Captured returns the number of recorded interaction rounds.
func (t *Trace) Captured() int { return len(t.Ins.Rounds) }

// Bytes returns the total encoded size of both operation streams.
func (t *Trace) Bytes() int { return t.Ins.Bytes() + t.Sec.Bytes() }

// Clone returns a Trace sharing the encoded streams and metadata but none
// of the lowered replay caches — the state a fresh deserialization would
// present. Benchmarks use it to measure the once-per-trace lowering cost.
func (t *Trace) Clone() *Trace {
	return &Trace{
		App:           t.App,
		Class:         t.Class,
		Scale:         t.Scale,
		Rounds:        t.Rounds,
		Warmup:        t.Warmup,
		ProfileRounds: t.ProfileRounds,
		PayloadBytes:  t.PayloadBytes,
		ReplyBytes:    t.ReplyBytes,
		Ins:           Proc{Name: t.Ins.Name, Threads: t.Ins.Threads, Allocs: t.Ins.Allocs, Rounds: t.Ins.Rounds},
		Sec:           Proc{Name: t.Sec.Name, Threads: t.Sec.Threads, Allocs: t.Sec.Allocs, Rounds: t.Sec.Rounds},
	}
}

// NewApp builds a workload.App whose processes replay the trace through
// the pre-lowered batch kernel. The app carries the recorded metadata
// (name, class, round counts, payload sizes, thread preferences), so the
// driver runs it exactly like the live application — through the same
// pipelines, rings, and models — at a fraction of the cost. Each replay
// app carries only a per-instance plan memo over the shared Trace, so any
// number of replay apps may run concurrently.
func (t *Trace) NewApp() *workload.App {
	return t.newApp(false)
}

// NewReferenceApp builds a replay app that interprets the decoded stream
// per op through Ctx dispatch — the original replayer, kept as the
// reference implementation the batch kernel is gated byte-identical
// against (the same pattern as the machine's materialized-routing
// reference).
func (t *Trace) NewReferenceApp() *workload.App {
	return t.newApp(true)
}

func (t *Trace) newApp(perOp bool) *workload.App {
	return &workload.App{
		Name:          t.App,
		Class:         t.Class,
		Insecure:      &replayProc{proc: &t.Ins, domain: arch.Insecure, perOp: perOp},
		Secure:        &replayProc{proc: &t.Sec, domain: arch.Secure, perOp: perOp},
		Rounds:        t.Rounds,
		Warmup:        t.Warmup,
		ProfileRounds: t.ProfileRounds,
		PayloadBytes:  t.PayloadBytes,
		ReplyBytes:    t.ReplyBytes,
	}
}

// replayProc replays one recorded process. Aside from a memo of the last
// gang's plan (one run uses one gang size throughout), it is a stateless
// read of the shared Proc.
type replayProc struct {
	proc   *Proc
	domain arch.Domain
	perOp  bool // force the per-op reference replayer

	lastT    int
	lastPlan *gangPlan
}

func (p *replayProc) Name() string        { return p.proc.Name }
func (p *replayProc) Domain() arch.Domain { return p.domain }
func (p *replayProc) Threads() int        { return p.proc.Threads }

// Init re-issues the recorded allocation schedule, reproducing the page
// layout of the recorded run (the replay machine's model then places
// those pages in its own regions and slices, exactly as it would live).
func (p *replayProc) Init(m *sim.Machine, space *sim.AddressSpace) {
	for _, a := range p.proc.Allocs {
		space.Alloc(a.Name, a.Size)
	}
}

// Round charges the recorded stream of interaction round `round` through
// the gang: chunk k of each ParFor runs on thread k%t of the *replay*
// gang, Seq sections on thread 0, barriers and atomic contention at the
// replay gang's cost — byte-identical to executing the payload live on
// this gang. The charge goes through the pre-lowered plan and the batch
// kernel; the per-op reference path handles reference apps and re-capture
// (where the marker stream itself must be reproduced).
func (p *replayProc) Round(g *sim.Group, round int) {
	if round >= len(p.proc.Rounds) {
		panic(fmt.Sprintf("trace: %s replay requested round %d but only %d were captured",
			p.proc.Name, round, len(p.proc.Rounds)))
	}
	if p.perOp || g.Capturing() {
		p.roundPerOp(g, round)
		return
	}
	t := g.Threads()
	if p.lastPlan == nil || t != p.lastT {
		p.lastPlan, p.lastT = p.proc.plan(t), t
	}
	lr := &p.proc.lowered[round]
	for _, run := range p.lastPlan.rounds[round] {
		if run.tid < 0 {
			g.Barrier()
			continue
		}
		g.ReplayRun(int(run.tid), lr.codes[run.start:run.end], lr.args[run.start:run.end])
	}
}

// roundPerOp is the reference replayer: the stream decoded on demand and
// interpreted one op at a time through Ctx dispatch, markers included.
func (p *replayProc) roundPerOp(g *sim.Group, round int) {
	d, err := decodeStream(p.proc.Rounds[round])
	if err != nil {
		// A recorder-produced stream can never be corrupt; replaying a
		// hand-mangled one is a programming error, not an input error.
		panic(fmt.Sprintf("trace: %s round %d: %v", p.proc.Name, round, err))
	}
	cur := g.Ctx(0)
	t := g.Threads()
	off := g.AddrOffset()
	chunk := -1
	for j, code := range d.ops {
		switch code {
		case opCompute:
			cur.Compute(d.args[j])
		case opRead:
			cur.Read(arch.Addr(d.args[j]) + off)
		case opWrite:
			cur.Write(arch.Addr(d.args[j]) + off)
		case opAtomic:
			cur.Atomic(arch.Addr(d.args[j]) + off)
		case opBarrier:
			g.Barrier()
		case opParFor:
			chunk = -1
		case opChunk:
			chunk++
			cur = g.Ctx(chunk % t)
		case opSeq:
			cur = g.Ctx(0)
		}
	}
}
