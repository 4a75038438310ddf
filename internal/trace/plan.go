package trace

import "fmt"

// Pre-lowered replay plans.
//
// Replaying a round through the generic interpreter costs a dispatch, a
// capture check, and (per chunk) a modulo per operation. The plan lowering
// removes all of it in two stages:
//
//  1. Gang-size independent (loweredRound, built once per Proc): the
//     round's stream decodes into SoA arrays holding only the chargeable
//     ops (compute/read/write/atomic) and a positional skeleton of the
//     structural markers. Compute coalescing is inherited from the
//     recorder, which merges consecutive Compute charges at capture time.
//  2. Per gang size (gangPlan, cached on the Proc): the skeleton resolves
//     into a table of maximal same-thread runs — every chunk%t decision
//     made once per (trace, gang size) instead of once per replayed chunk,
//     with adjacent same-thread runs merged (a single-threaded gang's
//     whole barrier interval becomes one run).
//
// The replayer then walks the run table: barriers via Group.Barrier,
// everything else via the batch kernel Group.ReplayRun over a contiguous
// slice of the shared op arrays.

// loweredRound is one round's gang-size-independent replay form.
type loweredRound struct {
	codes []byte  // chargeable ops only (opCompute..opAtomic)
	args  []int64 // cycles for computes, absolute addresses otherwise
	segs  []segment
}

// segment records one structural marker and the op-array position it
// occurred at.
type segment struct {
	code byte // opBarrier, opParFor, opChunk, or opSeq
	pos  int32
}

// planRun is one entry of a gang's run table: ops [start,end) of the
// lowered arrays execute on thread tid. tid -1 marks a barrier (its
// start/end are empty).
type planRun struct {
	tid        int32
	start, end int32
}

// gangPlan is the per-gang-size run table, one slice of runs per round.
type gangPlan struct {
	rounds [][]planRun
}

// lowerAll builds the lowered form of every round (once per Proc),
// straight from the varint streams.
func (p *Proc) lowerAll() {
	p.lowered = make([]loweredRound, len(p.Rounds))
	for r, stream := range p.Rounds {
		lr, err := lowerStream(stream)
		if err != nil {
			// A recorder-produced stream can never be corrupt; replaying a
			// hand-mangled one is a programming error, not an input error.
			panic(fmt.Sprintf("trace: %s round %d: %v", p.Name, r, err))
		}
		p.lowered[r] = lr
	}
}

// lowerStream decodes one round's stream directly into chargeable ops and
// the marker skeleton, with no per-op intermediate form. It reports
// corruption exactly as decodeStream does.
func lowerStream(stream []byte) (loweredRound, error) {
	n, markers := countOps(stream)
	lr := loweredRound{
		codes: make([]byte, 0, n-markers),
		args:  make([]int64, 0, n-markers),
		segs:  make([]segment, 0, markers),
	}
	var prev, arg int64
	var code byte
	var err error
	for i := 0; i < len(stream); {
		if code, arg, prev, i, err = readOp(stream, i, prev); err != nil {
			return loweredRound{}, err
		}
		if code <= opAtomic {
			lr.codes = append(lr.codes, code)
			lr.args = append(lr.args, arg)
			continue
		}
		lr.segs = append(lr.segs, segment{code: code, pos: int32(len(lr.codes))})
	}
	return lr, nil
}

// plan returns the run table for gang size t, building and caching it on
// first use (safe for concurrent replays).
func (p *Proc) plan(t int) *gangPlan {
	p.lowerOnce.Do(p.lowerAll)
	p.planMu.Lock()
	defer p.planMu.Unlock()
	if gp, ok := p.plans[t]; ok {
		return gp
	}
	gp := &gangPlan{rounds: make([][]planRun, len(p.lowered))}
	for r := range p.lowered {
		gp.rounds[r] = lowerRuns(&p.lowered[r], t)
	}
	if p.plans == nil {
		p.plans = make(map[int]*gangPlan)
	}
	p.plans[t] = gp
	return gp
}

// Lower pre-builds (or returns from cache) the replay plan for gang size
// t, returning the total number of runs across all rounds. It is the
// one-time cost every (trace, gang size) pays before batch replay —
// exposed so benchmarks can measure it and services can pre-warm a hot
// trace.
func (p *Proc) Lower(t int) int {
	gp := p.plan(t)
	n := 0
	for _, runs := range gp.rounds {
		n += len(runs)
	}
	return n
}

// lowerRuns resolves one round's marker skeleton into the run table for a
// gang of t threads, replicating the reference interpreter's thread
// choreography exactly: execution starts on thread 0, each ParFor resets
// the chunk counter, chunk k runs on thread k%t, Seq sections run on
// thread 0, and barriers synchronize. Adjacent runs on the same thread
// merge into one.
func lowerRuns(lr *loweredRound, t int) []planRun {
	var runs []planRun
	cur := int32(0)
	start := int32(0)
	chunk := -1
	emit := func(end int32) {
		if end > start {
			if n := len(runs); n > 0 && runs[n-1].tid == cur && runs[n-1].end == start {
				runs[n-1].end = end
			} else {
				runs = append(runs, planRun{tid: cur, start: start, end: end})
			}
		}
		start = end
	}
	for _, s := range lr.segs {
		emit(s.pos)
		switch s.code {
		case opBarrier:
			runs = append(runs, planRun{tid: -1, start: s.pos, end: s.pos})
		case opParFor:
			chunk = -1
		case opChunk:
			chunk++
			cur = int32(chunk % t)
		case opSeq:
			cur = 0
		}
	}
	emit(int32(len(lr.codes)))
	return runs
}
