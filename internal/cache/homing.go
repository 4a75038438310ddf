package cache

import (
	"fmt"

	"ironhide/internal/arch"
)

// SliceID identifies one shared L2 slice; slice s is the L2 bank co-located
// with core s on the mesh.
type SliceID int

// HomePolicy decides which shared L2 slice homes a memory page. The paper
// contrasts two policies on the Tile-Gx72:
//
//   - hash-for-home (the platform default): pages are hashed across every
//     slice the process may use, maximizing capacity but spreading a
//     process's footprint across slices that other processes also touch;
//   - local homing (tmc_alloc_set_home): an entire page is homed on a
//     single, explicitly chosen slice, which is what the MI6 baseline and
//     IRONHIDE use to keep each process's data inside its own slice set.
type HomePolicy interface {
	// HomeFor returns the slice that homes the page, restricted to the
	// given candidate slices (the slices owned by the allocating domain).
	HomeFor(page uint64, candidates []SliceID) SliceID
	// Name identifies the policy in reports.
	Name() string
}

// HashForHome spreads pages over all candidate slices with a multiplicative
// hash, modeling the platform's default distributed homing.
type HashForHome struct{}

// Name implements HomePolicy.
func (HashForHome) Name() string { return "hash-for-home" }

// HomeFor implements HomePolicy.
func (HashForHome) HomeFor(page uint64, candidates []SliceID) SliceID {
	if len(candidates) == 0 {
		panic("cache: hash-for-home with no candidate slices")
	}
	// Fibonacci hashing; deterministic and well spread for sequential pages.
	h := page * 0x9E3779B97F4A7C15
	return candidates[h%uint64(len(candidates))]
}

// LocalHome assigns pages round-robin across the candidate slices and then
// pins each page to that one slice, modeling tmc_alloc_set_home. Pages can
// later be re-homed (tmc_alloc_unmap + set_home + remap) during IRONHIDE's
// dynamic hardware isolation events.
//
// Page numbers are positional (the machine hands them out sequentially
// from zero), so the page→home table is a dense slice indexed by page
// rather than a map — allocation-free on the probe hot path after the
// first growth, and O(1) per lookup. Entry 0 means "no home"; a homed
// page stores home+1.
type LocalHome struct {
	next  int
	homes []int32 // page -> home slice + 1; 0 = unhomed
}

// NewLocalHome returns an empty local-homing policy.
func NewLocalHome() *LocalHome {
	return &LocalHome{}
}

// Name implements HomePolicy.
func (p *LocalHome) Name() string { return "local-homing" }

// HomeFor implements HomePolicy.
func (p *LocalHome) HomeFor(page uint64, candidates []SliceID) SliceID {
	if page < uint64(len(p.homes)) {
		if h := p.homes[page]; h != 0 {
			return SliceID(h - 1)
		}
	}
	if len(candidates) == 0 {
		panic("cache: local homing with no candidate slices")
	}
	h := candidates[p.next%len(candidates)]
	p.next++
	p.set(page, h)
	return h
}

func (p *LocalHome) set(page uint64, h SliceID) {
	for uint64(len(p.homes)) <= page {
		p.homes = append(p.homes, 0)
	}
	p.homes[page] = int32(h) + 1
}

// Rehome moves a page to a new slice, returning its previous home. It is
// the mechanism behind the one-time cluster reconfiguration: the secure
// kernel unmaps the page, sets the new home, and remaps it.
func (p *LocalHome) Rehome(page uint64, to SliceID) (from SliceID, err error) {
	if page >= uint64(len(p.homes)) || p.homes[page] == 0 {
		return 0, fmt.Errorf("cache: page %#x has no home to move", page)
	}
	from = SliceID(p.homes[page] - 1)
	p.homes[page] = int32(to) + 1
	return from, nil
}

// HomeOf reports the current home of a page, if it has one.
func (p *LocalHome) HomeOf(page uint64) (SliceID, bool) {
	if page >= uint64(len(p.homes)) || p.homes[page] == 0 {
		return 0, false
	}
	return SliceID(p.homes[page] - 1), true
}

// SliceArray is the distributed shared L2: one slice per core. Replication
// is disabled (as in the MI6 baseline and IRONHIDE): a line lives only in
// its home slice.
type SliceArray struct {
	slices []*Cache
}

// NewSliceArray builds n identical slices from the configuration.
func NewSliceArray(n int, cfg arch.Config) *SliceArray {
	sa := &SliceArray{slices: make([]*Cache, n)}
	for i := range sa.slices {
		sa.slices[i] = New(cfg.L2SliceSize, cfg.L2Ways, cfg.LineSize)
	}
	return sa
}

// Slice returns slice s.
func (sa *SliceArray) Slice(s SliceID) *Cache { return sa.slices[s] }

// Len returns the number of slices.
func (sa *SliceArray) Len() int { return len(sa.slices) }

// AggregateStats sums the per-slice counters.
func (sa *SliceArray) AggregateStats() Stats {
	var t Stats
	for _, s := range sa.slices {
		st := s.Stats()
		t.Accesses += st.Accesses
		t.Misses += st.Misses
	}
	return t
}

// ResetStats clears the counters on every slice.
func (sa *SliceArray) ResetStats() {
	for _, s := range sa.slices {
		s.ResetStats()
	}
}

// Reset restores every slice to its freshly built state (see Cache.Reset).
func (sa *SliceArray) Reset() {
	for _, s := range sa.slices {
		s.Reset()
	}
}
