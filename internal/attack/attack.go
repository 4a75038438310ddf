// Package attack validates the isolation claims empirically: it mounts a
// Prime+Probe-style covert channel through the shared L2 between a
// secure-domain sender and an insecure-domain receiver, and measures how
// many secret bits the receiver recovers.
//
// The receiver calibrates eviction sets for chosen (slice, set) targets in
// its own address space, primes them from one core, and probes them from
// another (so its private L1 cannot mask the L2 state), deciding each bit
// from the probe latency. The sender transmits a 1 by touching its own
// addresses that collide with the target.
//
// Under the shared memory systems (the insecure baseline and the SGX-like
// model) sender and receiver pages hash across the same slices, collisions
// exist, and the channel works — the Prime+Probe exposure the paper
// describes. Under strong isolation (multicore MI6 and IRONHIDE) the
// sender's pages can only be homed on secure slices, no collision exists,
// and the accuracy collapses to coin-flipping.
package attack

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"ironhide/internal/arch"
	"ironhide/internal/enclave"
	"ironhide/internal/noc"
	"ironhide/internal/sim"
)

// Result reports one covert-channel run.
type Result struct {
	Model       string
	Trials      int
	Correct     int
	Collisions  int // (slice,set) collisions the attacker could build
	ProbeBudget int // lines per eviction set
}

// Accuracy returns the fraction of bits recovered.
func (r Result) Accuracy() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Trials)
}

// Leaks reports whether the channel beats guessing by a clear margin.
func (r Result) Leaks() bool { return r.Accuracy() >= 0.75 }

// String summarizes the run.
func (r Result) String() string {
	return fmt.Sprintf("%s: %d/%d bits (%.0f%%), %d collision sets",
		r.Model, r.Correct, r.Trials, 100*r.Accuracy(), r.Collisions)
}

// lineRef is one attacker- or sender-controlled cache line.
type lineRef struct {
	addr arch.Addr
}

// evictionSets scans a buffer and groups line addresses by (home slice,
// L2 set) — the calibration phase of a real Prime+Probe attacker, which
// discovers conflicting addresses by timing.
func evictionSets(m *sim.Machine, buf sim.Buffer) map[[2]int][]lineRef {
	out := make(map[[2]int][]lineRef)
	ref := m.L2().Slice(0)
	for off := 0; off < buf.Size; off += m.Cfg.LineSize {
		a := buf.Addr(off)
		_, _, home, err := m.PageOf(a)
		if err != nil {
			continue
		}
		key := [2]int{int(home), ref.SetIndexOf(a)}
		out[key] = append(out[key], lineRef{addr: a})
	}
	return out
}

// target is one (slice, set) the receiver primes and probes: its own
// eviction set, and the sender's colliding one (nil when none exists).
type target struct{ recv, send []lineRef }

// channelTargets allocates the receiver's probe arena and the sender's
// signal arena on a configured machine and picks the channel's targets
// from them.
func channelTargets(m *sim.Machine) []target {
	recvBuf := m.NewSpace("attacker", arch.Insecure).Alloc("probe-arena", 2<<20)
	sendBuf := m.NewSpace("victim", arch.Secure).Alloc("signal-arena", 2<<20)
	return chooseTargets(evictionSets(m, recvBuf), evictionSets(m, sendBuf), m.Cfg.L2Ways)
}

// chooseTargets picks up to 8 (slice, set) targets where both sides
// control a full eviction set of ways lines, in ascending (slice, set)
// order, so the choice depends on the machine alone. With no collision,
// the attacker still probes the first full set of its own arena; the
// trials then see pure noise, as they must under strong isolation.
func chooseTargets(recvSets, sendSets map[[2]int][]lineRef, ways int) []target {
	keys := slices.SortedFunc(maps.Keys(recvSets), func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	var targets, own []target
	for _, key := range keys {
		rl, sl := recvSets[key], sendSets[key]
		if len(rl) >= ways && own == nil {
			own = []target{{recv: rl[:ways]}}
		}
		if len(rl) >= ways && len(sl) >= ways && len(targets) < 8 {
			targets = append(targets, target{recv: rl[:ways], send: sl[:ways]})
		}
	}
	if targets == nil {
		return own
	}
	return targets
}

// CovertChannel mounts the channel under the given model and returns the
// recovered-bit statistics. The secret is a deterministic pseudo-random
// bit string derived from seed.
func CovertChannel(model enclave.Model, trials int, seed int64) (Result, error) {
	m, err := sim.NewMachine(arch.TileGx72())
	if err != nil {
		return Result{}, err
	}
	if err := model.Configure(m); err != nil {
		return Result{}, err
	}
	res := Result{Model: model.Name(), Trials: trials, ProbeBudget: m.Cfg.L2Ways}
	targets := channelTargets(m)
	if len(targets) == 0 {
		return res, fmt.Errorf("attack: receiver cannot even build an eviction set")
	}
	if targets[0].send != nil {
		res.Collisions = len(targets)
	}

	// Core selection respects the model's geometry: the sender runs where
	// secure threads run, the receiver on insecure cores.
	senderCore := arch.CoreID(0)
	primeCore := arch.CoreID(m.Cfg.Cores() - 2)
	probeCore := arch.CoreID(m.Cfg.Cores() - 1)
	if _, spatial := model.(enclave.Spatial); spatial && model.StrongIsolation() {
		split := m.Split()
		sec := split.Cores(noc.SecureCluster)
		ins := split.Cores(noc.InsecureCluster)
		senderCore = sec[0]
		primeCore = ins[0]
		probeCore = ins[len(ins)-1]
	}

	rng := rand.New(rand.NewSource(seed))
	now := int64(0)
	prime := func(set []lineRef) {
		for _, l := range set {
			now += m.Access(primeCore, l.addr, false, arch.Insecure, now)
		}
	}
	transmit := func(set []lineRef) {
		for _, l := range set {
			now += m.Access(senderCore, l.addr, false, arch.Secure, now)
		}
	}
	probe := func(set []lineRef) int64 {
		var lat int64
		for _, l := range set {
			d := m.Access(probeCore, l.addr, false, arch.Insecure, now)
			now += d
			lat += d
		}
		return lat
	}

	// Calibrate a per-target probe-latency threshold: primed-and-quiet
	// latency plus half the eviction penalty. All private L1s involved are
	// flushed around each phase so latency reflects the shared L2 alone
	// (a real attacker's other work provides the same effect).
	thresholds := make([]int64, len(targets))
	for i, tg := range targets {
		m.L1(primeCore).FlushInvalidate()
		prime(tg.recv)
		m.L1(probeCore).FlushInvalidate()
		quiet := probe(tg.recv)
		thresholds[i] = quiet + int64(len(tg.recv))*m.Cfg.DRAMLat/2
	}

	for trial := 0; trial < trials; trial++ {
		ti := trial % len(targets)
		tg := targets[ti]
		bit := rng.Intn(2) == 1
		m.L1(primeCore).FlushInvalidate()
		prime(tg.recv)
		m.L1(probeCore).FlushInvalidate()
		if bit && tg.send != nil {
			m.L1(senderCore).FlushInvalidate()
			transmit(tg.send)
		}
		lat := probe(tg.recv)
		guess := lat > thresholds[ti]
		if guess == bit {
			res.Correct++
		}
	}
	return res, nil
}
