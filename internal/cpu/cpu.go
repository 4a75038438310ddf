// Package cpu models the per-core processor state the security models act
// on: the pipeline (flushed on SGX-like enclave crossings) and the
// hardware speculative-access check that multicore MI6 and IRONHIDE employ
// to stop speculative microarchitecture state attacks.
//
// The check (paper Section III-A2) verifies, for every access issued by an
// insecure process, whether the home location of the data is physically
// mapped to a secure DRAM region; such requests are stalled until resolved
// and then discarded — whether speculative or not — with no architectural
// effect, so secret-dependent state never forms outside the secure domain.
package cpu

import (
	"ironhide/internal/arch"
)

// Core is one tile's processor, tracking its logical cycle counter and
// pipeline statistics.
type Core struct {
	id       arch.CoreID
	cycles   int64
	flushes  int64
	flushLat int64
}

// NewCore builds core id with the configured pipeline flush latency.
func NewCore(id arch.CoreID, cfg arch.Config) *Core {
	return &Core{id: id, flushLat: cfg.PipelineFlushLat}
}

// ID returns the core identifier.
func (c *Core) ID() arch.CoreID { return c.id }

// Cycles returns the core's logical clock.
func (c *Core) Cycles() int64 { return c.cycles }

// FlushPipeline models a full pipeline flush-and-refill and returns its
// cost in cycles.
func (c *Core) FlushPipeline() int64 {
	c.flushes++
	c.cycles += c.flushLat
	return c.flushLat
}

// Flushes reports how many pipeline flushes this core performed.
func (c *Core) Flushes() int64 { return c.flushes }

// Reset zeroes the core's clock and flush counter (machine arena reuse).
func (c *Core) Reset() {
	c.cycles = 0
	c.flushes = 0
}

// Verdict is the outcome of the speculative-access hardware check.
type Verdict int

const (
	// Allowed lets the access proceed.
	Allowed Verdict = iota
	// Blocked stalls and discards the access: it targeted another domain's
	// DRAM region. Speculative or not, it has no architectural effect.
	Blocked
)

// String names the verdict.
func (v Verdict) String() string {
	if v == Blocked {
		return "blocked"
	}
	return "allowed"
}

// SpecChecker is the per-machine hardware check. It consults the region
// owner map maintained by the memory partition.
type SpecChecker struct {
	enabled bool
	ownerOf func(region int) arch.Domain
	blocked int64
	checked int64
}

// NewSpecChecker builds a checker over the given region-owner oracle.
// A disabled checker (SGX-like and insecure baselines) allows everything.
func NewSpecChecker(enabled bool, ownerOf func(region int) arch.Domain) *SpecChecker {
	return &SpecChecker{enabled: enabled, ownerOf: ownerOf}
}

// Enabled reports whether the check is active.
func (s *SpecChecker) Enabled() bool { return s.enabled }

// SetEnabled switches the check on or off; the security models toggle it
// when they configure the machine.
func (s *SpecChecker) SetEnabled(on bool) { s.enabled = on }

// Check validates an access by domain d to an address homed in region.
// The check is asymmetric, mirroring the paper: insecure accesses to a
// secure DRAM region are blocked, while a secure process may access the
// insecure world's regions (that is how the shared IPC buffer works — the
// shared data is considered insecure, and no secure data ever leaves the
// secure regions).
// It is shaped as an inlineable wrapper: a disabled checker and the
// common secure-side access decide without a function call; only an
// enabled insecure-side access consults the owner oracle.
func (s *SpecChecker) Check(d arch.Domain, region int) Verdict {
	if !s.enabled {
		return Allowed
	}
	s.checked++
	if d == arch.Insecure {
		return s.checkInsecure(region)
	}
	return Allowed
}

// checkInsecure is the slow half of Check: an enabled checker validating
// an insecure-side access against the region-owner oracle. Kept
// out-of-line so Check itself stays within the inlining budget.
//
//go:noinline
func (s *SpecChecker) checkInsecure(region int) Verdict {
	if s.ownerOf(region) == arch.Secure {
		s.blocked++
		return Blocked
	}
	return Allowed
}

// Reset disables the check and zeroes its counters — the freshly built
// state a recycled machine must present before a model reconfigures it.
func (s *SpecChecker) Reset() {
	s.enabled = false
	s.blocked = 0
	s.checked = 0
}

// Blocked reports how many accesses the check discarded.
func (s *SpecChecker) Blocked() int64 { return s.blocked }

// Checked reports how many accesses the check examined.
func (s *SpecChecker) Checked() int64 { return s.checked }
