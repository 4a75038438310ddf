package driver

import (
	"sync"

	"ironhide/internal/arch"
	"ironhide/internal/sim"
)

// The machine arena. A binding search runs dozens of probes, and every
// probe needs a machine in the fresh all-shared state — but a 64-core
// machine is ~7.7 MB of cache, TLB, routing, and traffic arrays, and
// building one per probe dominates the replay path's allocation profile.
// Machines therefore recycle through per-configuration pools: acquire
// takes a pooled machine and Resets it (generation bumps — no memclr of
// the big arrays), release returns one whose measurements have been
// collected. The reset-purity tests gate Reset byte-identical to a fresh
// NewMachine, so pooling is behaviorally invisible.
//
// arch.Config is all-scalar and comparable, so it keys the pool map
// directly; concurrent searches over different configurations never
// exchange machines.
var machinePools sync.Map // arch.Config -> *sync.Pool of *sim.Machine

// disableMachinePool short-circuits the arena so every acquire builds a
// fresh machine — the escape hatch the purity tests compare pooled runs
// against.
var disableMachinePool bool

// AcquireMachine returns a machine in the fresh all-shared state for cfg:
// a pooled one after Reset, or a newly built one when the pool is empty.
func AcquireMachine(cfg arch.Config) (*sim.Machine, error) {
	if !disableMachinePool {
		if p, ok := machinePools.Load(cfg); ok {
			if v := p.(*sync.Pool).Get(); v != nil {
				m := v.(*sim.Machine)
				m.Reset()
				return m, nil
			}
		}
	}
	return sim.NewMachine(cfg)
}

// ReleaseMachine returns a machine to its configuration's pool. Call it
// only once every measurement has been read off the machine; error paths
// simply drop their machine instead.
func ReleaseMachine(m *sim.Machine) {
	if m == nil || disableMachinePool {
		return
	}
	p, ok := machinePools.Load(m.Cfg)
	if !ok {
		p, _ = machinePools.LoadOrStore(m.Cfg, &sync.Pool{})
	}
	p.(*sync.Pool).Put(m)
}
