package trace

import (
	"encoding/binary"
	"fmt"

	"ironhide/internal/arch"
	"ironhide/internal/sim"
	"ironhide/internal/workload"
)

// Recorder captures one execution of an application into a Trace. Wrap
// the application with App(), run the wrapped app once through the driver
// (any model, any binding — the stream is invariant to both), and read
// the result from Trace().
//
// Capture is buffered: the wrapper processes attach a sim.EventBuf to
// each gang for exactly the duration of the inner process's Round — so
// driver-issued traffic (the IPC ring operations around each round) is
// excluded; the replayer's driver re-issues that traffic live. The hot
// path therefore appends two array elements per op, and the varint
// encoding below runs as one batch pass per round.
type Recorder struct {
	tr *Trace

	buf sim.EventBuf // per-round capture buffer, reused across rounds

	cur     *Proc  // process whose round is being encoded
	stream  []byte // the round's accumulating op stream
	prev    int64  // last operand address (delta basis)
	pending int64  // coalesced Compute cycles not yet flushed
}

// NewRecorder prepares a recorder for one capture of app (already scaled;
// pass the Options.Scale it was scaled with so replays can verify they
// run at the same scale).
func NewRecorder(app *workload.App, scale float64) *Recorder {
	return &Recorder{tr: &Trace{
		App:           app.Name,
		Class:         app.Class,
		Scale:         scale,
		Rounds:        app.Rounds,
		Warmup:        app.Warmup,
		ProfileRounds: app.ProfileRounds,
		PayloadBytes:  app.PayloadBytes,
		ReplyBytes:    app.ReplyBytes,
		Ins:           Proc{Name: app.Insecure.Name(), Threads: app.Insecure.Threads()},
		Sec:           Proc{Name: app.Secure.Name(), Threads: app.Secure.Threads()},
	}}
}

// App returns the recording wrapper around the application the recorder
// was built for: a workload.App with identical metadata whose processes
// tee every allocation and operation into the trace while the real
// payload executes.
func (r *Recorder) App(app *workload.App) *workload.App {
	cp := *app
	cp.Insecure = &recordProc{inner: app.Insecure, rec: r, proc: &r.tr.Ins}
	cp.Secure = &recordProc{inner: app.Secure, rec: r, proc: &r.tr.Sec}
	return &cp
}

// Trace returns the capture. Call it after the wrapped app has run.
func (r *Recorder) Trace() *Trace { return r.tr }

// begin opens recording of one (process, round).
func (r *Recorder) begin(p *Proc, round int) {
	for len(p.Rounds) <= round {
		p.Rounds = append(p.Rounds, nil)
	}
	r.cur = p
	r.stream = nil
	r.prev = 0
	r.pending = 0
}

// end closes the open round and stores its stream.
func (r *Recorder) end(round int) {
	r.flush()
	r.cur.Rounds[round] = r.stream
	r.cur, r.stream = nil, nil
}

// encode batch-encodes the captured event buffer into round's varint
// stream — the once-per-round pass that replaces the former per-op
// interface calls on the execution hot path.
func (r *Recorder) encode(p *Proc, round int) {
	r.begin(p, round)
	// Pre-size for the common shape (opcode + short varint per op).
	r.stream = make([]byte, 0, len(r.buf.Codes)*3)
	for i, code := range r.buf.Codes {
		switch code {
		case opCompute:
			r.pending += r.buf.Args[i]
		case opRead, opWrite, opAtomic:
			r.op(code, arch.Addr(r.buf.Args[i]))
		default:
			r.mark(code)
		}
	}
	r.end(round)
}

// flush emits the coalesced Compute cycles accumulated since the last
// non-Compute event.
func (r *Recorder) flush() {
	if r.pending == 0 {
		return
	}
	r.stream = append(r.stream, opCompute)
	r.stream = binary.AppendUvarint(r.stream, uint64(r.pending))
	r.pending = 0
}

// op emits one address-carrying operation with a zigzag delta operand.
func (r *Recorder) op(code byte, addr arch.Addr) {
	r.flush()
	r.stream = append(r.stream, code)
	r.stream = binary.AppendVarint(r.stream, int64(addr)-r.prev)
	r.prev = int64(addr)
}

// mark emits one operand-free structural marker.
func (r *Recorder) mark(code byte) {
	r.flush()
	r.stream = append(r.stream, code)
}

// recordProc wraps one side of the application: it forwards Init and
// Round to the real process while capturing the allocation schedule and
// the operation stream.
type recordProc struct {
	inner workload.Process
	rec   *Recorder
	proc  *Proc
}

func (p *recordProc) Name() string        { return p.inner.Name() }
func (p *recordProc) Domain() arch.Domain { return p.inner.Domain() }
func (p *recordProc) Threads() int        { return p.inner.Threads() }

// Init records the process's allocation schedule while the real Init
// builds its data structures. Replay re-issues the schedule from the
// replay process's own space, so a cross-domain allocation during Init
// could not be reproduced faithfully — fail the capture loudly instead
// of corrupting the trace.
func (p *recordProc) Init(m *sim.Machine, space *sim.AddressSpace) {
	m.SetAllocHook(func(d arch.Domain, name string, size int) {
		if d != p.inner.Domain() {
			panic(fmt.Sprintf("trace: %s Init allocated %q in foreign domain %v", p.inner.Name(), name, d))
		}
		p.proc.Allocs = append(p.proc.Allocs, Alloc{Name: name, Size: size})
	})
	p.inner.Init(m, space)
	m.SetAllocHook(nil)
}

// Round executes the real round with the gang's capture buffer attached,
// then batch-encodes the buffer into the round's stream.
func (p *recordProc) Round(g *sim.Group, round int) {
	p.rec.buf.Reset()
	g.SetEventBuf(&p.rec.buf)
	p.inner.Round(g, round)
	g.SetEventBuf(nil)
	p.rec.encode(p.proc, round)
}
