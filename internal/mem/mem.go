// Package mem models the off-chip memory system: memory controllers with
// request queues, and the physically isolated DRAM regions that MI6 and
// IRONHIDE statically distribute across security domains.
//
// Two behaviours matter to the paper:
//
//   - controller queues/buffers are shared microarchitecture state, so the
//     MI6 baseline purges them (drain + write back, tmc_mem_fence_node) on
//     every enclave entry/exit, while IRONHIDE assigns whole controllers to
//     clusters so purges happen only on secure-process context switches;
//   - DRAM regions are the unit of partitioning: a domain's last-level
//     cache misses are only ever routed to controllers owning its regions.
package mem

import (
	"fmt"
	"math/bits"

	"ironhide/internal/arch"
)

// ControllerID identifies a memory controller.
type ControllerID int

// Stats accumulates controller activity.
type Stats struct {
	Stalls int64 // requests that waited behind a busy controller
}

// Controller is one memory controller modeled as a single server with a
// bounded request queue. Timing is deterministic: each request occupies
// the controller for MCServiceLat cycles and the requester observes any
// queueing delay plus the DRAM access latency.
type Controller struct {
	queueDepth int
	serviceLat int64
	dramLat    int64
	drainLat   int64
	queued     int64 // entries currently queued (pending write-backs etc.)
	busyUntil  int64 // the queue model's clock: when the server next idles
	stats      Stats
}

// NewController builds a controller from the machine configuration.
func NewController(cfg arch.Config) *Controller {
	return &Controller{
		queueDepth: cfg.MCQueueDepth,
		serviceLat: cfg.MCServiceLat,
		dramLat:    cfg.DRAMLat,
		drainLat:   cfg.MCDrainLat,
	}
}

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// ResetStats zeroes counters but keeps the queue model's state.
func (c *Controller) ResetStats() { c.stats = Stats{} }

// Reset restores the controller to its freshly built state: empty queue,
// idle server, zero counters. The machine arena uses it when recycling a
// machine between probes.
func (c *Controller) Reset() {
	c.queued = 0
	c.busyUntil = 0
	c.stats = Stats{}
}

// Access services one memory request issued at time now (cycles) and
// returns the latency observed by the requester: queueing delay (if the
// controller is busy), service occupancy, and the DRAM row access.
// Write-backs leave an entry in the queue, which purges must drain.
func (c *Controller) Access(now int64, write bool) int64 {
	wait := c.busyUntil - now
	if wait < 0 {
		wait = 0
	} else if wait > 0 {
		c.stats.Stalls++
	}
	// Bound the modeled backlog at the queue depth: a full queue simply
	// back-pressures the requester, which the wait term already charges.
	maxBacklog := int64(c.queueDepth) * c.serviceLat
	if wait > maxBacklog {
		wait = maxBacklog
	}
	c.busyUntil = now + wait + c.serviceLat
	if write && c.queued < int64(c.queueDepth) {
		c.queued++
	}
	return wait + c.serviceLat + c.dramLat
}

// QueueOccupancy reports entries pending in the controller's queue.
func (c *Controller) QueueOccupancy() int64 { return c.queued }

// Purge drains the queue and write-back buffers (the strong-isolation
// purge), returning the cycles it takes: each pending entry is written
// back to DRAM at the drain rate.
func (c *Controller) Purge() int64 {
	cost := c.queued * c.drainLat
	c.queued = 0
	return cost
}

// Partition maps every DRAM region to an owning controller and every
// region to a security domain; it is the static distribution that both
// multicore MI6 and IRONHIDE rely on. It also records each controller's
// domain so cross-domain routing can be detected as a violation.
type Partition struct {
	regionOwner []arch.Domain // region -> domain
	regionCtrl  []ControllerID
	ctrlDomain  []arch.Domain // controller -> domain
	controllers int
	// byDomain lists each domain's regions in ascending order. Ownership
	// changes only in AssignDomains and Shared, which rebuild it in place,
	// so RegionsOf — called on every page allocation — allocates nothing.
	byDomain [2][]int
}

// NewPartition distributes cfg.DRAMRegions regions over cfg.MemControllers
// controllers (regions interleaved across controllers, as multicore
// platforms do for bandwidth) with every region and controller initially
// owned by the insecure domain.
func NewPartition(cfg arch.Config) *Partition {
	p := &Partition{
		regionOwner: make([]arch.Domain, cfg.DRAMRegions),
		regionCtrl:  make([]ControllerID, cfg.DRAMRegions),
		ctrlDomain:  make([]arch.Domain, cfg.MemControllers),
		controllers: cfg.MemControllers,
	}
	for r := range p.regionCtrl {
		p.regionCtrl[r] = ControllerID(r % cfg.MemControllers)
	}
	for d := range p.byDomain {
		p.byDomain[d] = make([]int, 0, cfg.DRAMRegions)
	}
	p.index()
	return p
}

// Regions returns the number of regions.
func (p *Partition) Regions() int { return len(p.regionOwner) }

// Controllers returns the number of controllers.
func (p *Partition) Controllers() int { return p.controllers }

// AssignDomains splits the machine's regions and controllers between the
// two domains using a controller bit-mask for the secure domain — the
// Tile-Gx72 prototype's tmc_alloc_set_nodes_interleaved(pos) idiom, e.g.
// pos=0b0011 dedicates MC0 and MC1 (and their regions) to the secure
// cluster and the rest to the insecure cluster.
func (p *Partition) AssignDomains(secureMask uint) error {
	if secureMask>>uint(p.controllers) != 0 {
		return fmt.Errorf("mem: secure mask %#b names controllers beyond %d", secureMask, p.controllers)
	}
	if secureMask == 0 || bits.OnesCount(secureMask) == p.controllers {
		return fmt.Errorf("mem: secure mask %#b must leave both domains at least one controller", secureMask)
	}
	for c := 0; c < p.controllers; c++ {
		if secureMask&(1<<uint(c)) != 0 {
			p.ctrlDomain[c] = arch.Secure
		} else {
			p.ctrlDomain[c] = arch.Insecure
		}
	}
	for r := range p.regionOwner {
		p.regionOwner[r] = p.ctrlDomain[p.regionCtrl[r]]
	}
	p.index()
	return nil
}

// Shared marks every region and controller as insecure-owned (the
// non-partitioned SGX-like and insecure baselines, where all processes
// share the whole memory system).
func (p *Partition) Shared() {
	for c := range p.ctrlDomain {
		p.ctrlDomain[c] = arch.Insecure
	}
	for r := range p.regionOwner {
		p.regionOwner[r] = arch.Insecure
	}
	p.index()
}

// index rebuilds byDomain from regionOwner.
func (p *Partition) index() {
	for d := range p.byDomain {
		p.byDomain[d] = p.byDomain[d][:0]
	}
	for r, owner := range p.regionOwner {
		p.byDomain[owner] = append(p.byDomain[owner], r)
	}
}

// ControllerOf returns the controller serving a region.
func (p *Partition) ControllerOf(region int) ControllerID { return p.regionCtrl[region] }

// OwnerOf returns the domain owning a region.
func (p *Partition) OwnerOf(region int) arch.Domain { return p.regionOwner[region] }

// ControllerDomain returns the domain a controller is dedicated to.
func (p *Partition) ControllerDomain(c ControllerID) arch.Domain { return p.ctrlDomain[c] }

// RegionsOf lists the regions owned by a domain, in ascending order. The
// slice is the partition's own: callers must not modify it, and its
// contents change with the next AssignDomains or Shared.
func (p *Partition) RegionsOf(d arch.Domain) []int { return p.byDomain[d] }

// Isolated reports whether the partition gives each domain disjoint,
// non-empty controller sets — the strong-isolation requirement.
func (p *Partition) Isolated() bool {
	var sec, insec bool
	for _, d := range p.ctrlDomain {
		if d == arch.Secure {
			sec = true
		} else {
			insec = true
		}
	}
	return sec && insec
}
