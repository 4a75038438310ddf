// Package cache models the set-associative caches of the IRONHIDE
// multicore: the per-core private L1 data caches and the distributed
// shared L2 built from one slice per core.
//
// The model is a timing/state model, not a data store: a cache tracks
// which line tags are resident, which are dirty, and which security domain
// installed them, so that the simulator can observe hits, misses,
// write-backs, and — critically for the paper — the cost and completeness
// of flush-and-invalidate purges performed at enclave entry and exit.
package cache

import (
	"fmt"
	"math"
	"math/bits"

	"ironhide/internal/arch"
)

// Stats accumulates access counters for one cache.
type Stats struct {
	Accesses   int64
	Misses     int64
	Evictions  int64
	WriteBacks int64
	Flushes    int64 // number of FlushInvalidate operations
}

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// line is one cache line. A line is resident iff its generation stamp
// matches the cache's current generation: invalidating the whole cache is
// then a single generation bump instead of a multi-megabyte memclr, which
// is what lets a pooled machine reset in O(1) per cache. A zero line
// (gen 0) is never resident because the cache generation starts at 1 and
// nextGen skips 0 on wrap.
//
// The layout is 24 bytes (pinned by a test): a 64-core machine holds
// 294,912 lines, so every byte here is ~0.3 MB per simulated machine.
// owner stores an arch.Domain, which has only the values 0 and 1.
type line struct {
	tag   uint64
	used  uint64 // LRU timestamp
	gen   uint32
	owner uint8
	dirty bool
}

// Cache is a single set-associative write-back cache with LRU replacement.
type Cache struct {
	sets      int
	ways      int
	lineShift uint
	setMask   uint64
	gen       uint32
	lines     []line // sets*ways, set-major
	// Per-set MRU filter: the last line hit or installed in each set.
	// Hot access patterns rotate over a handful of lines (a state buffer,
	// a lookup table, a round key) that map to different sets, so each
	// set's single entry hits where any fixed-size global filter would
	// thrash. Entries always point into lines (never reallocated) and are
	// validated by the generation stamp, so invalidation — Reset, flushes,
	// way eviction — never needs to touch this table.
	mruOf []*line
	clock uint64
	stats Stats
}

// New builds a cache of the given total size in bytes with the given
// associativity and line size. Size, ways and lineSize must describe a
// whole number of power-of-two sets.
func New(size, ways, lineSize int) *Cache {
	if size <= 0 || ways <= 0 || lineSize <= 0 {
		panic(fmt.Sprintf("cache: invalid geometry size=%d ways=%d line=%d", size, ways, lineSize))
	}
	sets := size / (ways * lineSize)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets must be a positive power of two", sets))
	}
	if lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d must be a power of two", lineSize))
	}
	return &Cache{
		sets:      sets,
		ways:      ways,
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		setMask:   uint64(sets - 1),
		gen:       1,
		lines:     make([]line, sets*ways),
		mruOf:     make([]*line, sets),
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Lines returns the total line capacity.
func (c *Cache) Lines() int { return c.sets * c.ways }

// Stats returns a copy of the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Reset restores the cache to its freshly built state — empty, zero
// counters, zero clock — in O(1): residency is generational, so bumping
// the generation invalidates every line without touching the line array.
// The machine arena relies on this to recycle ~7 MB of cache state per
// probe without a memclr.
func (c *Cache) Reset() {
	c.nextGen()
	c.clock = 0
	c.stats = Stats{}
}

// nextGen invalidates every line by advancing the generation. It is the
// only place the generation changes. When the 32-bit counter wraps, lines
// stamped with old generations could alias the new ones, so the line
// array is cleared (every line back to gen 0, never resident) and the
// count restarts at 1 — once per 2^32 invalidations.
func (c *Cache) nextGen() {
	if c.gen == math.MaxUint32 {
		clear(c.lines)
		c.gen = 1
		return
	}
	c.gen++
}

// SetIndexOf exposes the set an address maps to; the attack harness uses
// it to build eviction sets exactly the way Prime+Probe does.
func (c *Cache) SetIndexOf(addr arch.Addr) int {
	return int((uint64(addr) >> c.lineShift) & c.setMask)
}

// Result describes the outcome of one access.
type Result struct {
	Hit            bool
	Evicted        bool        // a valid line was displaced
	WroteBack      bool        // the displaced line was dirty
	VictimOwner    arch.Domain // owner of the displaced line, if any
	VictimWasOther bool        // displaced line belonged to a different domain
}

// HitMRU is the inlineable fast half of Access: it performs the access
// entirely — with state updates identical to Access's hit path — iff the
// line is its set's most recently used, and reports whether it did.
// Callers on the simulator's hot path try it first and fall back to the
// full Access; any touch pattern rotating over set-distinct lines then
// costs no function call.
func (c *Cache) HitMRU(addr arch.Addr, write bool) bool {
	tag := uint64(addr) >> c.lineShift
	l := c.mruOf[tag&c.setMask]
	if l == nil || l.tag != tag || l.gen != c.gen {
		return false
	}
	c.clock++
	c.stats.Accesses++
	l.used = c.clock
	if write {
		l.dirty = true
	}
	return true
}

// Access looks up addr, installing the line on a miss (write-allocate),
// marking it dirty on writes, and returns what happened. owner records the
// security domain performing the access so that purge-completeness and
// interference invariants can be checked afterwards.
func (c *Cache) Access(addr arch.Addr, write bool, owner arch.Domain) Result {
	// The MRU filter first: it skips the set scan with state updates
	// identical to the scan's hit path, so it is behaviorally invisible.
	if c.HitMRU(addr, write) {
		return Result{Hit: true}
	}
	return c.ScanAccess(addr, write, owner)
}

// ScanAccess is Access without the MRU pre-check, for callers that just
// tried HitMRU themselves and missed; retrying the filter here would be
// pure waste on the miss path. State evolution is identical to Access.
func (c *Cache) ScanAccess(addr arch.Addr, write bool, owner arch.Domain) Result {
	c.clock++
	c.stats.Accesses++
	tag := uint64(addr) >> c.lineShift
	base := int(tag&c.setMask) * c.ways
	// One bounds check for the whole set; the way loop then runs on a
	// fixed-length view, which matters on the simulator's access hot path.
	set := c.lines[base : base+c.ways]

	var victim, free = -1, -1
	var oldest uint64 = ^uint64(0)
	for w := range set {
		l := &set[w]
		if l.gen == c.gen && l.tag == tag {
			l.used = c.clock
			if write {
				l.dirty = true
			}
			c.mruOf[tag&c.setMask] = l
			return Result{Hit: true}
		}
		if l.gen != c.gen {
			if free < 0 {
				free = w
			}
			continue
		}
		if l.used < oldest {
			oldest = l.used
			victim = w
		}
	}

	c.stats.Misses++
	res := Result{}
	slot := free
	if slot < 0 {
		slot = victim
		v := &set[slot]
		res.Evicted = true
		res.VictimOwner = arch.Domain(v.owner)
		res.VictimWasOther = arch.Domain(v.owner) != owner
		if v.dirty {
			res.WroteBack = true
			c.stats.WriteBacks++
		}
		c.stats.Evictions++
	}
	set[slot] = line{tag: tag, gen: c.gen, dirty: write, owner: uint8(owner), used: c.clock}
	c.mruOf[tag&c.setMask] = &set[slot]
	return res
}

// Contains reports whether the line holding addr is resident. It does not
// disturb LRU state or statistics (it is an oracle for tests and attacks).
func (c *Cache) Contains(addr arch.Addr) bool {
	tag := uint64(addr) >> c.lineShift
	base := int(tag&c.setMask) * c.ways
	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if l.gen == c.gen && l.tag == tag {
			return true
		}
	}
	return false
}

// SetOccupancyByOwner counts resident lines of one set installed by the
// given domain. Like Contains it disturbs nothing — it is the
// strongest-receiver oracle the post-reconfiguration residue attack reads
// (any microarchitectural readout is bounded by perfect state knowledge).
func (c *Cache) SetOccupancyByOwner(set int, owner arch.Domain) int {
	if set < 0 || set >= c.sets {
		return 0
	}
	n := 0
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if l.gen == c.gen && arch.Domain(l.owner) == owner {
			n++
		}
	}
	return n
}

// OccupancyByOwner counts resident lines installed by the given domain.
func (c *Cache) OccupancyByOwner(owner arch.Domain) int {
	n := 0
	for i := range c.lines {
		if c.lines[i].gen == c.gen && arch.Domain(c.lines[i].owner) == owner {
			n++
		}
	}
	return n
}

// Occupancy counts all resident lines.
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].gen == c.gen {
			n++
		}
	}
	return n
}

// FlushResult reports the work a FlushInvalidate performed; the purge cost
// model turns it into cycles.
type FlushResult struct {
	Lines       int // valid lines invalidated
	WrittenBack int // dirty lines written back
}

// EvictLRUWays invalidates the n least-recently-used lines of every set,
// modeling the collateral damage of the prototype's dummy-buffer L1 flush:
// the dummy lines land in the flushing core's local L2 slice, displacing
// one resident way per set for every 32 KB of dummy buffer read. It
// returns the number of valid lines displaced.
func (c *Cache) EvictLRUWays(n int) int {
	if n <= 0 {
		return 0
	}
	evicted := 0
	for set := 0; set < c.sets; set++ {
		base := set * c.ways
		for k := 0; k < n; k++ {
			victim := -1
			var oldest uint64 = ^uint64(0)
			for w := 0; w < c.ways; w++ {
				l := &c.lines[base+w]
				if l.gen == c.gen && l.used < oldest {
					oldest = l.used
					victim = base + w
				}
			}
			if victim < 0 {
				break
			}
			c.lines[victim] = line{}
			evicted++
			c.stats.Evictions++
		}
	}
	return evicted
}

// FlushInvalidate writes back every dirty line and invalidates the whole
// cache, exactly like the dummy-buffer read plus memory fence the paper
// uses on the Tile-Gx72 prototype (tmc_mem_fence after reading a
// cache-sized buffer). It returns the amount of work done.
func (c *Cache) FlushInvalidate() FlushResult {
	var fr FlushResult
	for i := range c.lines {
		l := &c.lines[i]
		if l.gen != c.gen {
			continue
		}
		fr.Lines++
		if l.dirty {
			fr.WrittenBack++
		}
	}
	// Invalidate with one generation bump instead of a per-line store.
	c.nextGen()
	c.stats.Flushes++
	return fr
}
