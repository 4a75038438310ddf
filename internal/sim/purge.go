package sim

import (
	"fmt"

	"ironhide/internal/arch"
	"ironhide/internal/cache"
	"ironhide/internal/mem"
)

// PurgeCorePrivate flush-and-invalidates one core's private L1 and TLB,
// returning the cycles the operation costs that core. Following the
// prototype, the L1 flush reads a dummy buffer the size of the cache (so
// its cost is capacity, not occupancy) and a memory fence propagates dirty
// data to the home L2 slices; the TLB purge is a flat user command.
func (m *Machine) PurgeCorePrivate(core arch.CoreID) int64 {
	fr := m.l1[core].FlushInvalidate()
	cost := int64(m.l1[core].Lines()) * m.Cfg.L1FlushLineLat
	cost += int64(fr.WrittenBack) * m.Cfg.MCServiceLat // fence drains dirty lines
	m.tlbs[core].Flush()
	cost += m.Cfg.TLBFlushLat
	// The dummy-buffer read lands one L1's worth of dummy lines in the
	// core's local L2 slice, displacing the LRU way of each set — the
	// collateral shared-cache damage of every purge.
	dummyWays := m.Cfg.L1Size / (m.Cfg.LineSize * m.Cfg.L2Sets())
	if dummyWays < 1 {
		dummyWays = 1
	}
	m.l2.Slice(cache.SliceID(core)).EvictLRUWays(dummyWays)
	return cost
}

// PurgePrivate purges the private resources of all the given cores in
// parallel (the prototype purges all L1s and TLBs concurrently) and
// returns the critical-path cycles.
func (m *Machine) PurgePrivate(cores []arch.CoreID) int64 {
	var worst int64
	for _, c := range cores {
		if cost := m.PurgeCorePrivate(c); cost > worst {
			worst = cost
		}
	}
	return worst
}

// PurgeMCs drains the queues and write-back buffers of the given memory
// controllers in parallel (tmc_mem_fence_node per controller) and returns
// the critical-path cycles.
func (m *Machine) PurgeMCs(ids []mem.ControllerID) int64 {
	var worst int64
	for _, id := range ids {
		if cost := m.mcs[id].Purge(); cost > worst {
			worst = cost
		}
	}
	return worst
}

// AllCores lists every core on the machine.
func (m *Machine) AllCores() []arch.CoreID {
	out := make([]arch.CoreID, m.Cfg.Cores())
	for i := range out {
		out[i] = arch.CoreID(i)
	}
	return out
}

// AllSlices lists every L2 slice: the slice set a fresh machine homes both
// domains on. It is the machine's own list; callers must not modify it.
func (m *Machine) AllSlices() []cache.SliceID { return m.allSlices }

// AllMCs lists every memory controller.
func (m *Machine) AllMCs() []mem.ControllerID {
	out := make([]mem.ControllerID, len(m.mcs))
	for i := range out {
		out[i] = mem.ControllerID(i)
	}
	return out
}

// MCsOf lists the controllers dedicated to a domain.
func (m *Machine) MCsOf(d arch.Domain) []mem.ControllerID {
	var out []mem.ControllerID
	for i := range m.mcs {
		if m.Part.ControllerDomain(mem.ControllerID(i)) == d {
			out = append(out, mem.ControllerID(i))
		}
	}
	return out
}

// TotalPages returns the number of pages mapped on the machine (retired
// or not); with RetirePages it lets a caller bracket the pages one
// process's initialization mapped.
func (m *Machine) TotalPages() int { return len(m.pages) }

// RetirePages unmaps the pages in the global page-number range [lo, hi)
// — the kernel tearing down a departed process's address space. Retired
// pages are dropped from their domain's rehoming set, so later dynamic
// isolation events move only the resident footprint; their page-table
// entries stay tombstoned (page numbers are positional), and any access
// to them is the usual unmapped-address panic.
func (m *Machine) RetirePages(lo, hi uint64) {
	if hi > uint64(len(m.pages)) {
		hi = uint64(len(m.pages))
	}
	for pn := lo; pn < hi; pn++ {
		m.pages[pn] = pageInfo{retired: true}
	}
	for d := range m.pagesByDom {
		kept := m.pagesByDom[d][:0]
		for _, pn := range m.pagesByDom[d] {
			if pn < lo || pn >= hi {
				kept = append(kept, pn)
			}
		}
		m.pagesByDom[d] = kept
	}
}

// RehomeResult summarizes a dynamic-hardware-isolation page migration.
type RehomeResult struct {
	PagesMoved int
	Cycles     int64
}

// RehomeDomainPages migrates every page of domain d whose home slice is no
// longer in the domain's slice set, spreading them round-robin over the
// new set (tmc_alloc_unmap + tmc_alloc_set_home + tmc_alloc_remap per
// page). Slices that lost pages are flush-and-invalidated, since their
// contents physically move. The domain must use local homing.
func (m *Machine) RehomeDomainPages(d arch.Domain) (RehomeResult, error) {
	lh, ok := m.policy[d].(*cache.LocalHome)
	if !ok {
		return RehomeResult{}, fmt.Errorf("sim: domain %v uses %s; rehoming requires local homing", d, m.policy[d].Name())
	}
	allowed := make(map[cache.SliceID]bool, len(m.slices[d]))
	for _, s := range m.slices[d] {
		allowed[s] = true
	}
	var res RehomeResult
	vacated := make(map[cache.SliceID]bool)
	rr := 0
	targets := m.slices[d]
	if len(targets) == 0 {
		return RehomeResult{}, fmt.Errorf("sim: domain %v has no slices to rehome onto", d)
	}
	for _, pn := range m.pagesByDom[d] {
		home, ok := lh.HomeOf(pn)
		if !ok || allowed[home] {
			continue
		}
		to := targets[rr%len(targets)]
		rr++
		if _, err := lh.Rehome(pn, to); err != nil {
			return RehomeResult{}, err
		}
		m.pages[pn].home = to
		vacated[home] = true
		res.PagesMoved++
		res.Cycles += m.Cfg.RehomePageLat
	}
	for s := range vacated {
		m.l2.Slice(s).FlushInvalidate()
	}
	return res, nil
}
