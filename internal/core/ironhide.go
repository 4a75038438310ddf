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
	"ironhide/internal/cache"
	"ironhide/internal/enclave"
	"ironhide/internal/noc"
	"ironhide/internal/sim"
)

// IronHide is the IRONHIDE security model. The zero value is not usable;
// construct it with New.
type IronHide struct {
	initialSecureCores int
	reconfigs          int
	purgesOnCtxSwitch  int64
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

// InitialSecureCores returns the configured starting cluster size.
func (ih *IronHide) InitialSecureCores() int { return ih.initialSecureCores }

// Reconfigurations returns how many dynamic-hardware-isolation events have
// run; the security argument requires at most one per application
// invocation.
func (ih *IronHide) Reconfigurations() int { return ih.reconfigs }

// Configure implements enclave.Model: form the clusters, partition the
// memory system, arm the hardware check, isolate the network.
func (ih *IronHide) Configure(m *sim.Machine) error {
	split, err := ClusterSplit(ih.initialSecureCores, m.Cfg)
	if err != nil {
		return err
	}
	if err := m.Part.AssignDomains(enclave.SecureControllerMask); err != nil {
		return err
	}
	m.Spec.SetEnabled(true)
	m.SetHomePolicy(arch.Insecure, cache.NewLocalHome())
	m.SetHomePolicy(arch.Secure, cache.NewLocalHome())
	applySliceSplit(m, split)
	m.SetSplit(split, true)
	ih.reconfigs = 0
	return nil
}

// ClusterSplit validates the two-cluster split Configure installs for a
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

// ContextSwitchSecure models a context switch between mutually DIStrusting
// secure processes (from different interactive applications) time-sharing
// the secure cluster: the cluster's private resources and its dedicated
// memory controllers are purged. Interactions within one application never
// pay this.
func (ih *IronHide) ContextSwitchSecure(m *sim.Machine) int64 {
	split := m.Split()
	cost := m.PurgePrivate(split.Cores(noc.SecureCluster))
	cost += m.PurgeMCs(m.MCsOf(arch.Secure))
	cost += m.Cfg.PurgeKernelLat
	ih.purgesOnCtxSwitch++
	return cost
}

// ReconfigResult details one dynamic hardware isolation event.
type ReconfigResult struct {
	From, To   int   // secure cluster sizes
	CoresMoved int   // cores whose private state was flushed
	PagesMoved int   // pages re-homed across L2 slices
	Cycles     int64 // total stall observed by the application
}

// Reconfigure performs the one dynamic hardware isolation event: the
// system stalls, the re-allocated cores' private resources are
// flushed-and-invalidated, and the memory pages mapped to the shared
// cache slices of the moved cores are re-homed (unmap, set-home, remap).
// The caller (the secure kernel) is responsible for enforcing the
// once-per-invocation budget.
func (ih *IronHide) Reconfigure(m *sim.Machine, secureCores int) (ReconfigResult, error) {
	old := m.Split()
	next, err := noc.NewSplit(secureCores, m.Cfg)
	if err != nil {
		return ReconfigResult{}, err
	}
	if next.Size(noc.SecureCluster) == 0 || next.Size(noc.InsecureCluster) == 0 {
		return ReconfigResult{}, fmt.Errorf("core: reconfiguration to %d secure cores leaves a cluster empty", secureCores)
	}
	res := ReconfigResult{From: old.SecureCores, To: secureCores}
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
	applySliceSplit(m, next)
	m.SetSplit(next, true)
	for _, d := range []arch.Domain{arch.Secure, arch.Insecure} {
		rr, err := m.RehomeDomainPages(d)
		if err != nil {
			return ReconfigResult{}, err
		}
		res.PagesMoved += rr.PagesMoved
		res.Cycles += rr.Cycles
	}
	res.Cycles += m.Cfg.PurgeKernelLat // stall/resume orchestration
	ih.reconfigs++
	return res, nil
}

// applySliceSplit dedicates L2 slices to the clusters that own their
// tiles: slice i belongs to the cluster of core i.
func applySliceSplit(m *sim.Machine, split noc.Split) {
	var sec, ins []cache.SliceID
	for i := 0; i < m.Cfg.Cores(); i++ {
		if split.ClusterOf(arch.CoreID(i)) == noc.SecureCluster {
			sec = append(sec, cache.SliceID(i))
		} else {
			ins = append(ins, cache.SliceID(i))
		}
	}
	m.SetSlices(arch.Secure, sec)
	m.SetSlices(arch.Insecure, ins)
}
