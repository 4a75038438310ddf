package driver

import (
	"sync"

	"ironhide/internal/arch"
	"ironhide/internal/sim"
)

// The machine arena. A binding search runs dozens of probes, and every
// probe needs a machine in the fresh all-shared state — but a 64-core
// machine is ~7.7 MB of cache, TLB, and routing arrays, and
// building one per probe dominates the replay path's allocation profile.
// Machines therefore recycle through per-configuration free lists: acquire
// pops a listed machine and Resets it (generation bumps — no memclr of the
// big arrays), release pushes one whose measurements have been collected.
// The reset-purity tests gate Reset byte-identical to a fresh NewMachine,
// so recycling is behaviorally invisible. The lists are never trimmed, so
// they hold at most the peak number of machines in use at once, and a GC
// cannot empty them.
//
// arch.Config is all-scalar and comparable, so it keys the map directly;
// concurrent searches over different configurations never exchange
// machines.
var arena struct {
	mu   sync.Mutex
	free map[arch.Config][]*sim.Machine
}

// AcquireMachine returns a machine in the fresh all-shared state for cfg:
// a recycled one after Reset, or a newly built one when none is free. The
// caller owns it until ReleaseMachine.
func AcquireMachine(cfg arch.Config) (*sim.Machine, error) {
	arena.mu.Lock()
	list := arena.free[cfg]
	if n := len(list); n > 0 {
		m := list[n-1]
		list[n-1] = nil
		arena.free[cfg] = list[:n-1]
		arena.mu.Unlock()
		m.Reset()
		return m, nil
	}
	arena.mu.Unlock()
	return sim.NewMachine(cfg)
}

// ReleaseMachine returns a machine to its configuration's free list. Call
// it only once every measurement has been read off the machine.
func ReleaseMachine(m *sim.Machine) {
	arena.mu.Lock()
	defer arena.mu.Unlock()
	if arena.free == nil {
		arena.free = map[arch.Config][]*sim.Machine{}
	}
	arena.free[m.Cfg] = append(arena.free[m.Cfg], m)
}
