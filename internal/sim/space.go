package sim

import (
	"fmt"

	"ironhide/internal/arch"
)

// Buffer is a contiguous allocation of simulated memory. It carries no
// payload — workloads keep their real data in ordinary Go values — but it
// defines the addresses those values live at, so every touch of the real
// data can be charged to the timing model.
type Buffer struct {
	Name string // buffer name, unqualified; Proc scopes it
	Proc string // owning process, "" for anonymous spaces
	Base arch.Addr
	Size int
}

// FullName returns the process-qualified buffer name for diagnostics. The
// qualification is deferred to here so that Alloc itself — called on every
// probe of a binding search when replay re-creates an app's address space —
// stays allocation-free.
func (b Buffer) FullName() string { return b.Proc + "/" + b.Name }

// Addr returns the address of byte off within the buffer.
func (b Buffer) Addr(off int) arch.Addr {
	if off < 0 || off >= b.Size {
		panic(fmt.Sprintf("sim: %s[%d] out of range [0,%d)", b.FullName(), off, b.Size))
	}
	return b.Base + arch.Addr(off)
}

// Index returns the address of element i of an array of elemSize-byte
// elements starting at the buffer base.
func (b Buffer) Index(i, elemSize int) arch.Addr {
	return b.Addr(i * elemSize)
}

// AddressSpace allocates simulated memory for one process. Pages are
// placed in the owning domain's DRAM regions (round-robin across them,
// mirroring region interleaving) and homed on the domain's L2 slices by
// the domain's homing policy.
type AddressSpace struct {
	m      *Machine
	domain arch.Domain
	proc   string
}

// NewSpace opens an address space for a process of the given domain.
func (m *Machine) NewSpace(proc string, d arch.Domain) *AddressSpace {
	return &AddressSpace{m: m, domain: d, proc: proc}
}

// Domain returns the owning security domain.
func (as *AddressSpace) Domain() arch.Domain { return as.domain }

// Alloc reserves size bytes (rounded up to whole pages) and returns the
// buffer describing them.
func (as *AddressSpace) Alloc(name string, size int) Buffer {
	if size <= 0 {
		panic(fmt.Sprintf("sim: Alloc(%q, %d) must be positive", name, size))
	}
	m := as.m
	if m.allocHook != nil {
		m.allocHook(as.domain, name, size)
	}
	ps := m.Cfg.PageSize
	npages := (size + ps - 1) / ps
	base := arch.Addr(len(m.pages) * ps)
	regions := m.allocRegions[as.domain]
	if regions == nil {
		regions = m.Part.RegionsOf(as.domain)
		if len(regions) == 0 {
			// Non-partitioned machines own every region through Insecure.
			regions = m.Part.RegionsOf(arch.Insecure)
		}
	}
	if len(regions) == 0 {
		panic(fmt.Sprintf("sim: no DRAM regions available to domain %v", as.domain))
	}
	for i := 0; i < npages; i++ {
		pn := uint64(len(m.pages))
		region := regions[m.regionRR[as.domain]%len(regions)]
		m.regionRR[as.domain]++
		home := m.policy[as.domain].HomeFor(pn, m.slices[as.domain])
		m.pages = append(m.pages, pageInfo{domain: as.domain, region: region, home: home})
		m.pagesByDom[as.domain] = append(m.pagesByDom[as.domain], pn)
	}
	return Buffer{Name: name, Proc: as.proc, Base: base, Size: npages * ps}
}

// PageCount returns the number of pages mapped for a domain.
func (m *Machine) PageCount(d arch.Domain) int { return len(m.pagesByDom[d]) }
