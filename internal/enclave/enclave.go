// Package enclave defines the pluggable security models the paper
// compares, and implements the three baselines:
//
//   - Insecure: no security primitives; processes co-execute concurrently
//     on OS-scheduled cores, sharing every hardware resource.
//   - SGXLike: Intel-SGX-style enclaves; every enclave entry (ECALL) and
//     exit (OCALL) pays the HotCalls-measured constant for pipeline
//     flushing and cryptography, but caches, TLBs, network and memory stay
//     shared — no strong isolation.
//   - MulticoreMI6: the paper's baseline; the SGX execution model plus
//     strong isolation — statically partitioned L2 slices and DRAM regions
//     (local homing, replication disabled), the speculative-access check,
//     and a full purge of private caches, TLBs, and memory-controller
//     queues on every enclave entry and exit.
//
// The IRONHIDE model itself (spatial clusters, pinning, dynamic hardware
// isolation) lives in the internal/core package; like Insecure, it is a
// Spatial model.
package enclave

import (
	"ironhide/internal/arch"
	"ironhide/internal/cache"
	"ironhide/internal/noc"
	"ironhide/internal/sim"
)

// Model is a secure-processor execution model driving a sim.Machine.
type Model interface {
	// Name identifies the model in reports ("Insecure", "SGX", "MI6",
	// "IRONHIDE").
	Name() string
	// StrongIsolation reports whether the model guarantees strong isolation
	// against microarchitecture state attacks.
	StrongIsolation() bool
	// Temporal reports whether the secure and insecure processes time-share
	// the same cores (true) or run concurrently on spatially isolated
	// clusters (false).
	Temporal() bool
	// Configure prepares a fresh machine: partitions, homing policies,
	// hardware checks.
	Configure(m *sim.Machine) error
	// EnterSecure applies the model's enclave-entry protocol, returning its
	// overhead in cycles and mutating machine state (purges).
	EnterSecure(m *sim.Machine) int64
	// ExitSecure applies the enclave-exit protocol.
	ExitSecure(m *sim.Machine) int64
}

// Spatial is a model that runs the two processes concurrently on two
// clusters of cores, the first secureCores of them secure. It places and
// moves that boundary itself and holds no per-run state.
type Spatial interface {
	Model
	// Place configures a fresh machine with its boundary at secureCores.
	Place(m *sim.Machine, secureCores int) error
	// Reconfigure moves a placed machine's boundary to secureCores and
	// reports what the move cost.
	Reconfigure(m *sim.Machine, secureCores int) (Reconfig, error)
	// ContextSwitchSecure switches the secure cluster between mutually
	// distrusting secure processes, returning its cost in cycles.
	ContextSwitchSecure(m *sim.Machine) int64
}

// Reconfig details one move of a spatial model's cluster boundary.
type Reconfig struct {
	From, To   int   // secure cluster sizes
	CoresMoved int   // cores that changed clusters
	PagesMoved int   // pages re-homed across L2 slices
	Cycles     int64 // total stall observed by the application
}

// SecureControllerMask is the controller bit-mask the paper dedicates to
// the secure domain on the prototype (pos = 0b0011: MC0 and MC1).
const SecureControllerMask = 0b0011

// Insecure is the no-security baseline: full sharing, concurrent
// execution, no purging. Completion times of every other model are
// normalized to it in Figure 1a.
type Insecure struct{}

// Name implements Model.
func (Insecure) Name() string { return "Insecure" }

// StrongIsolation implements Model.
func (Insecure) StrongIsolation() bool { return false }

// Temporal implements Model: an unconstrained OS schedules the two
// processes concurrently on disjoint cores.
func (Insecure) Temporal() bool { return false }

// Configure implements Model: everything shared, hash-for-home everywhere.
func (Insecure) Configure(m *sim.Machine) error {
	configureShared(m)
	return nil
}

// EnterSecure implements Model: ordinary shared-memory communication.
func (Insecure) EnterSecure(*sim.Machine) int64 { return 0 }

// ExitSecure implements Model.
func (Insecure) ExitSecure(*sim.Machine) int64 { return 0 }

// Place implements Spatial: everything shared, with the boundary only
// assigning cores to the two processes.
func (Insecure) Place(m *sim.Machine, secureCores int) error {
	split, err := noc.NewSplit(secureCores, m.Cfg)
	if err != nil {
		return err
	}
	configureShared(m)
	m.SetSplit(split, false)
	return nil
}

// Reconfigure implements Spatial: the OS moves the boundary for free, with
// no purge and no re-homing — the leakage the attack tests demonstrate.
// It counts the cores noc.Split.Moved would list, without listing them.
func (Insecure) Reconfigure(m *sim.Machine, secureCores int) (Reconfig, error) {
	from := m.Split().SecureCores
	if err := (Insecure{}).Place(m, secureCores); err != nil {
		return Reconfig{}, err
	}
	return Reconfig{From: from, To: secureCores, CoresMoved: max(from-secureCores, secureCores-from)}, nil
}

// ContextSwitchSecure implements Spatial: nothing is purged.
func (Insecure) ContextSwitchSecure(*sim.Machine) int64 { return 0 }

// SGXLike is the Intel-SGX-style enclave model: temporal execution with a
// constant per-crossing cost (pipeline flush + data encryption/decryption
// + integrity verification, ~5us per HotCalls), and no partitioning or
// purging of shared microarchitecture state.
type SGXLike struct{}

// Name implements Model.
func (SGXLike) Name() string { return "SGX" }

// StrongIsolation implements Model: the enclave's footprint remains
// exposed in shared caches and TLBs.
func (SGXLike) StrongIsolation() bool { return false }

// Temporal implements Model.
func (SGXLike) Temporal() bool { return true }

// Configure implements Model: memory system stays shared.
func (SGXLike) Configure(m *sim.Machine) error {
	configureShared(m)
	return nil
}

// EnterSecure implements Model: the ECALL constant plus a pipeline flush.
func (SGXLike) EnterSecure(m *sim.Machine) int64 {
	return m.Cfg.SGXEntryExitLat + m.Cfg.PipelineFlushLat
}

// ExitSecure implements Model: the OCALL constant plus a pipeline flush.
func (SGXLike) ExitSecure(m *sim.Machine) int64 {
	return m.Cfg.SGXEntryExitLat + m.Cfg.PipelineFlushLat
}

// MulticoreMI6 is the paper's baseline: MI6's strong isolation realized on
// the 64-core machine. Shared L2 slices and DRAM regions are statically
// halved between the domains, pages are locally homed, the
// speculative-access check is armed, and every enclave entry and exit
// purges all time-shared private resources and memory-controller queues.
type MulticoreMI6 struct{}

// Name implements Model.
func (MulticoreMI6) Name() string { return "MI6" }

// StrongIsolation implements Model.
func (MulticoreMI6) StrongIsolation() bool { return true }

// Temporal implements Model.
func (MulticoreMI6) Temporal() bool { return true }

// Configure implements Model: 32/32 static L2 split, local homing,
// partitioned DRAM regions, hardware check armed.
func (MulticoreMI6) Configure(m *sim.Machine) error {
	return Isolate(m, m.Cfg.Cores()/2)
}

// Isolate partitions the memory system between the domains the way
// strong isolation requires: dedicated memory controllers and DRAM
// regions, the speculative-access check armed, local homing, and the L2
// slices split at secureCores.
func Isolate(m *sim.Machine, secureCores int) error {
	if err := m.Part.AssignDomains(SecureControllerMask); err != nil {
		return err
	}
	m.SetSpecCheck(true)
	m.SetHomePolicy(arch.Insecure, cache.NewLocalHome())
	m.SetHomePolicy(arch.Secure, cache.NewLocalHome())
	SplitSlices(m, secureCores)
	return nil
}

// SplitSlices dedicates each L2 slice to the cluster of the core on its
// tile: the first secureCores slices are secure, the rest insecure.
func SplitSlices(m *sim.Machine, secureCores int) {
	all := m.AllSlices()
	m.SetSlices(arch.Secure, all[:secureCores:secureCores])
	m.SetSlices(arch.Insecure, all[secureCores:])
}

// EnterSecure implements Model: the full strong-isolation purge.
func (MulticoreMI6) EnterSecure(m *sim.Machine) int64 { return mi6Purge(m) }

// ExitSecure implements Model: the purge runs again on the way out.
func (MulticoreMI6) ExitSecure(m *sim.Machine) int64 { return mi6Purge(m) }

// mi6Purge flushes every core's private L1 and TLB (in parallel), drains
// every memory-controller queue (in parallel), and pays the secure
// kernel's orchestration overhead. The cost is dominated by the
// dummy-buffer L1 reads, matching the prototype's ~0.19 ms measurement.
func mi6Purge(m *sim.Machine) int64 {
	cost := m.PurgePrivate(m.AllCores())
	cost += m.PurgeMCs(m.AllMCs())
	cost += m.Cfg.PurgeKernelLat
	return cost
}

// configureShared installs the all-shared view the Insecure and SGX-like
// models run on: shared DRAM regions, the speculative-access check off,
// and hash-for-home over every L2 slice.
func configureShared(m *sim.Machine) {
	m.Part.Shared()
	m.SetSpecCheck(false)
	m.SetHomePolicy(arch.Insecure, cache.HashForHome{})
	m.SetHomePolicy(arch.Secure, cache.HashForHome{})
	m.SetSlices(arch.Insecure, m.AllSlices())
	m.SetSlices(arch.Secure, m.AllSlices())
}
