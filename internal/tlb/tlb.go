// Package tlb models the per-core private translation look-aside buffers.
//
// TLBs are one of the time-shared private resources the MI6 baseline must
// purge on every enclave entry and exit (on the Tile-Gx72 prototype this is
// done with Tilera-specific user commands); IRONHIDE instead pins processes
// to clusters so the TLBs are never shared across domains. The Tile-Gx72
// prototype contains only private TLBs, so no shared-TLB model is needed.
package tlb

import (
	"fmt"

	"ironhide/internal/arch"
)

// entry is one translation. An entry is resident iff its generation stamp
// matches the TLB's current generation, so Flush and Reset are O(1)
// generation bumps (zero entries, gen 0, are never resident — the TLB
// generation starts at 1).
type entry struct {
	vpn   uint64
	gen   uint64
	used  uint64
	owner arch.Domain
}

// TLB is a set-associative translation buffer with LRU replacement.
type TLB struct {
	ways    int
	setMask uint64
	gen     uint64
	entries []entry
	// Per-set MRU filter: the last translation hit or installed in each
	// set. Hot access patterns rotate over a handful of pages that map to
	// different sets, so each set's single entry hits where a fixed-size
	// global filter would thrash. Entries always point into entries
	// (never reallocated) and are validated by the generation stamp, so
	// Reset and Flush never need to touch this table.
	mruOf []*entry
	clock uint64
}

// New builds a TLB with the given total entries and associativity.
func New(entries, ways int) *TLB {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("tlb: invalid geometry entries=%d ways=%d", entries, ways))
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("tlb: %d sets must be a power of two", sets))
	}
	return &TLB{
		ways: ways, setMask: uint64(sets - 1), gen: 1,
		entries: make([]entry, entries),
		mruOf:   make([]*entry, sets),
	}
}

// Entries returns total capacity.
func (t *TLB) Entries() int { return len(t.entries) }

// Reset restores the TLB to its freshly built state — empty, zero
// clock — in O(1) via a generation bump. The machine arena
// uses it when recycling a machine between probes.
func (t *TLB) Reset() {
	t.gen++
	t.clock = 0
}

// HitMRU is the inlineable fast half of Lookup: it performs the lookup
// entirely — with state updates identical to Lookup's hit path — iff vpn
// is its set's most recently used translation, and reports whether it
// did. Callers on the simulator's hot path try it first and fall back to
// the full Lookup; any touch pattern rotating over set-distinct pages
// then costs no function call.
func (t *TLB) HitMRU(vpn uint64) bool {
	e := t.mruOf[vpn&t.setMask]
	if e == nil || e.vpn != vpn || e.gen != t.gen {
		return false
	}
	t.clock++
	e.used = t.clock
	return true
}

// Lookup translates the virtual page number, inserting it on a miss, and
// reports whether it hit. owner tags the entry's security domain.
func (t *TLB) Lookup(vpn uint64, owner arch.Domain) bool {
	// The MRU filter first: it skips the set scan with state updates
	// identical to the scan's hit path, so it is behaviorally invisible.
	if t.HitMRU(vpn) {
		return true
	}
	return t.ScanLookup(vpn, owner)
}

// ScanLookup is Lookup without the MRU pre-check, for callers that just
// tried HitMRU themselves and missed; retrying the filter here would be
// pure waste on the miss path. State evolution is identical to Lookup.
func (t *TLB) ScanLookup(vpn uint64, owner arch.Domain) bool {
	t.clock++
	base := int(vpn&t.setMask) * t.ways
	free, victim := -1, base
	var oldest uint64 = ^uint64(0)
	for w := 0; w < t.ways; w++ {
		e := &t.entries[base+w]
		if e.gen == t.gen && e.vpn == vpn {
			e.used = t.clock
			t.mruOf[vpn&t.setMask] = e
			return true
		}
		if e.gen != t.gen {
			if free < 0 {
				free = base + w
			}
			continue
		}
		if e.used < oldest {
			oldest = e.used
			victim = base + w
		}
	}
	slot := victim
	if free >= 0 {
		slot = free
	}
	t.entries[slot] = entry{vpn: vpn, gen: t.gen, owner: owner, used: t.clock}
	t.mruOf[vpn&t.setMask] = &t.entries[slot]
	return false
}

// Contains reports residency without disturbing state (test/attack oracle).
func (t *TLB) Contains(vpn uint64) bool {
	base := int(vpn&t.setMask) * t.ways
	for w := 0; w < t.ways; w++ {
		e := &t.entries[base+w]
		if e.gen == t.gen && e.vpn == vpn {
			return true
		}
	}
	return false
}

// OccupancyByOwner counts resident translations installed by the domain.
func (t *TLB) OccupancyByOwner(owner arch.Domain) int {
	n := 0
	for i := range t.entries {
		if t.entries[i].gen == t.gen && t.entries[i].owner == owner {
			n++
		}
	}
	return n
}

// Flush invalidates every entry (the enclave entry/exit purge) and returns
// how many translations were dropped.
func (t *TLB) Flush() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].gen == t.gen {
			n++
		}
	}
	t.gen++
	return n
}
