// Package core implements IRONHIDE, the paper's primary contribution: a
// secure multicore that forms two spatially isolated clusters of cores and
// pins secure processes to the secure cluster, so that interactions with
// insecure processes cross the shared IPC buffer instead of invoking an
// enclave entry/exit protocol — eliminating the per-interaction
// microarchitecture state purges that cripple the MI6 baseline.
//
// Strong isolation is preserved spatially: each cluster owns its cores'
// private L1s and TLBs, a set of shared L2 slices (local homing,
// replication disabled), and dedicated memory controllers and DRAM
// regions; the on-chip network keeps intra-cluster packets inside their
// cluster using bidirectional X-Y/Y-X routing; and the speculative-access
// hardware check discards insecure accesses aimed at secure regions.
//
// Dynamic hardware isolation lets the secure kernel re-size the clusters
// for load balance — stalling the system, flush-and-invalidating the moved
// cores' private state, and re-homing L2-resident pages — at most once per
// interactive application invocation, bounding the scheduling side
// channel the way the paper prescribes.
package core

import (
	"fmt"

	"ironhide/internal/arch"
	"ironhide/internal/enclave"
	"ironhide/internal/noc"
	"ironhide/internal/sim"
)

// IronHide is the IRONHIDE security model. The zero value is not usable;
// construct it with New. It holds no per-run state: one value places and
// moves the boundary of any number of machines at once.
type IronHide struct {
	initialSecureCores int
}

// New returns an IRONHIDE model whose clusters start at the given secure
// size (the paper starts every application at 32 cores per cluster).
func New(initialSecureCores int) *IronHide {
	return &IronHide{initialSecureCores: initialSecureCores}
}

// Name implements enclave.Model.
func (ih *IronHide) Name() string { return "IRONHIDE" }

// StrongIsolation implements enclave.Model.
func (ih *IronHide) StrongIsolation() bool { return true }

// Temporal implements enclave.Model: IRONHIDE executes the two domains
// concurrently on their clusters.
func (ih *IronHide) Temporal() bool { return false }

// Configure implements enclave.Model: Place at the initial secure size.
func (ih *IronHide) Configure(m *sim.Machine) error {
	return ih.Place(m, ih.initialSecureCores)
}

// Place implements enclave.Spatial: form the clusters at secureCores,
// partition the memory system, arm the hardware check, isolate the
// network.
func (ih *IronHide) Place(m *sim.Machine, secureCores int) error {
	split, err := ClusterSplit(secureCores, m.Cfg)
	if err != nil {
		return err
	}
	if err := enclave.Isolate(m, secureCores); err != nil {
		return err
	}
	m.SetSplit(split, true)
	return nil
}

// ClusterSplit validates the two-cluster split Place installs for a
// secure cluster of secureCores cores: it must fit the mesh and leave
// both clusters at least one core.
func ClusterSplit(secureCores int, cfg arch.Config) (noc.Split, error) {
	split, err := noc.NewSplit(secureCores, cfg)
	if err != nil {
		return noc.Split{}, err
	}
	if split.Size(noc.SecureCluster) == 0 || split.Size(noc.InsecureCluster) == 0 {
		return noc.Split{}, fmt.Errorf("core: both clusters need at least one core, secure=%d", secureCores)
	}
	return split, nil
}

// EnterSecure implements enclave.Model: pinned processes interact through
// the shared IPC buffer with no enclave crossing, so the per-interaction
// protocol cost is zero. (The IPC traffic itself is charged naturally by
// the memory model.)
func (ih *IronHide) EnterSecure(*sim.Machine) int64 { return 0 }

// ExitSecure implements enclave.Model.
func (ih *IronHide) ExitSecure(*sim.Machine) int64 { return 0 }

// ContextSwitchSecure implements enclave.Spatial. It models a context
// switch between mutually DIStrusting secure processes (from different
// interactive applications) time-sharing the secure cluster: the
// cluster's private resources and its dedicated memory controllers are
// purged. Interactions within one application never pay this.
func (ih *IronHide) ContextSwitchSecure(m *sim.Machine) int64 {
	split := m.Split()
	cost := m.PurgePrivate(split.Cores(noc.SecureCluster))
	cost += m.PurgeMCs(m.MCsOf(arch.Secure))
	cost += m.Cfg.PurgeKernelLat
	return cost
}

// Reconfigure implements enclave.Spatial. It performs the one dynamic
// hardware isolation event: the system stalls, the re-allocated cores'
// private resources are flushed-and-invalidated, and the memory pages
// mapped to the shared cache slices of the moved cores are re-homed
// (unmap, set-home, remap). The caller (the secure kernel) is responsible
// for enforcing the once-per-invocation budget.
func (ih *IronHide) Reconfigure(m *sim.Machine, secureCores int) (enclave.Reconfig, error) {
	old := m.Split()
	next, err := noc.NewSplit(secureCores, m.Cfg)
	if err != nil {
		return enclave.Reconfig{}, err
	}
	if next.Size(noc.SecureCluster) == 0 || next.Size(noc.InsecureCluster) == 0 {
		return enclave.Reconfig{}, fmt.Errorf("core: reconfiguration to %d secure cores leaves a cluster empty", secureCores)
	}
	res := enclave.Reconfig{From: old.SecureCores, To: secureCores}
	moved := old.Moved(next)
	res.CoresMoved = len(moved)
	if len(moved) == 0 {
		return res, nil
	}
	// Stall the system and flush the moved cores' private state (the
	// flushes run in parallel; the application observes the critical path).
	res.Cycles += m.PurgePrivate(moved)
	// Install the new split, then migrate both domains' pages onto their
	// new slice sets.
	enclave.SplitSlices(m, secureCores)
	m.SetSplit(next, true)
	for _, d := range []arch.Domain{arch.Secure, arch.Insecure} {
		rr, err := m.RehomeDomainPages(d)
		if err != nil {
			return enclave.Reconfig{}, err
		}
		res.PagesMoved += rr.PagesMoved
		res.Cycles += rr.Cycles
	}
	res.Cycles += m.Cfg.PurgeKernelLat // stall/resume orchestration
	return res, nil
}
