// Package arch defines the architectural vocabulary shared by every
// subsystem of the IRONHIDE multicore model: core and cluster identifiers,
// physical addresses, security domains, and the machine configuration
// (mesh geometry, cache and TLB organizations, and latency parameters).
//
// The default configuration, TileGx72, reconstructs the Tilera
// Tile-Gx72(TM) platform used by the paper's prototype: 64 usable cores on
// a 2-D mesh, a private 32 KB L1 data cache and private TLB per core, a
// 256 KB shared L2 cache slice per core (distributed shared last-level
// cache), and four DDR memory controllers attached at the mesh edges.
// Table I of the paper (the system-configuration table) is not present in
// the source text available to this reproduction; the values below are
// rebuilt from in-text references and public Tile-Gx72 documentation.
package arch

import (
	"fmt"
	"time"
)

// CoreID identifies a core (tile) on the mesh, in row-major order:
// core c sits at coordinate (c mod W, c div W).
type CoreID int

// Addr is a physical byte address in the simulated machine.
type Addr uint64

// Domain is a security domain. The paper's model has exactly two:
// the insecure world and the secure world (the enclave side).
type Domain int

const (
	// Insecure is the domain of ordinary (untrusted) processes, including
	// the untrusted operating system.
	Insecure Domain = 0
	// Secure is the domain of attested secure processes (enclaves).
	Secure Domain = 1
)

// String returns the conventional name of the domain.
func (d Domain) String() string {
	switch d {
	case Insecure:
		return "insecure"
	case Secure:
		return "secure"
	default:
		return fmt.Sprintf("domain(%d)", int(d))
	}
}

// Coord is a router coordinate on the 2-D mesh. X grows rightwards along a
// row, Y grows downwards across rows.
type Coord struct {
	X, Y int
}

// String renders the coordinate as "(x,y)".
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Config describes the modeled multicore. All latencies are in core clock
// cycles; with the default 1 GHz clock one cycle is one nanosecond, which
// keeps cycle arithmetic and wall-clock arithmetic interchangeable.
type Config struct {
	// Mesh geometry.
	MeshWidth  int // routers per row
	MeshHeight int // rows
	ClockHz    int64

	// Private L1 data cache, per core.
	L1Size   int // bytes
	L1Ways   int
	L1HitLat int64 // cycles

	// Private TLB, per core.
	TLBEntries  int
	TLBWays     int
	PageSize    int
	PageWalkLat int64 // cycles to refill one TLB entry

	// Shared L2: one slice per core (distributed shared last-level cache).
	L2SliceSize int // bytes per slice
	L2Ways      int
	L2HitLat    int64 // cycles

	LineSize int // cache line, bytes

	// On-chip network.
	HopLat    int64 // per-hop router+link traversal, cycles
	RouterLat int64 // injection/ejection overhead per network crossing, cycles
	// LinkContentionLat is the added cycles per mesh link whose last user
	// was a different co-resident tenant — the switch-allocation penalty a
	// packet pays when it displaces another tenant's flow on a shared
	// link. Charged only when the machine tracks tenants (space-shared
	// co-tenancy); single-tenant runs never observe it.
	LinkContentionLat int64

	// Memory system.
	MemControllers int
	DRAMRegions    int   // physically isolated DRAM regions
	MCQueueDepth   int   // request-queue entries per controller
	MCServiceLat   int64 // controller occupancy per request, cycles
	DRAMLat        int64 // row access latency, cycles
	MCDrainLat     int64 // cycles to drain+write back one queue entry on purge

	// Core pipeline.
	PipelineFlushLat int64 // cycles to flush and refill the core pipeline

	// Security-protocol constants.
	SGXEntryExitLat  int64 // SGX-like ECALL/OCALL constant (HotCalls ~5us)
	OSSwitchLat      int64 // ordinary (insecure) process switch cost
	PurgeKernelLat   int64 // secure-kernel orchestration overhead per purge
	L1FlushLineLat   int64 // per-line cost of the dummy-buffer L1 flush read
	TLBFlushLat      int64 // flat cost of the TLB purge user command
	RehomePageLat    int64 // cycles to unmap+rehome+remap one L2-resident page
	BarrierBaseLat   int64 // base cost of one thread barrier
	AtomicContention int64 // added cycles per contending thread on an atomic

	// ProtocolDilation records the divisor applied to the protocol
	// constants above by TileGx72Scaled (1 = full fidelity). Reports
	// multiply per-event costs back by it when quoting wall-clock numbers.
	ProtocolDilation int64
}

// Cores returns the number of cores (tiles) on the mesh.
func (c Config) Cores() int { return c.MeshWidth * c.MeshHeight }

// CoordOf maps a core to its mesh coordinate (row-major layout).
func (c Config) CoordOf(id CoreID) Coord {
	return Coord{X: int(id) % c.MeshWidth, Y: int(id) / c.MeshWidth}
}

// CoreAt maps a mesh coordinate back to its core identifier.
func (c Config) CoreAt(at Coord) CoreID {
	return CoreID(at.Y*c.MeshWidth + at.X)
}

// L1Sets returns the number of sets in the private L1.
func (c Config) L1Sets() int { return c.L1Size / (c.L1Ways * c.LineSize) }

// L2Sets returns the number of sets in one shared L2 slice.
func (c Config) L2Sets() int { return c.L2SliceSize / (c.L2Ways * c.LineSize) }

// CyclesToDuration converts a cycle count to wall-clock time at the
// configured core frequency. The conversion is integer-exact, so the cycle
// count is recoverable from the duration.
func (c Config) CyclesToDuration(cycles int64) time.Duration {
	secs := cycles / c.ClockHz
	rem := cycles % c.ClockHz
	return time.Duration(secs)*time.Second + time.Duration(rem*int64(time.Second)/c.ClockHz)
}

// Validate reports a descriptive error if the configuration is not
// internally consistent (non-power-of-two caches, empty mesh, and so on).
func (c Config) Validate() error {
	switch {
	case c.MeshWidth <= 0 || c.MeshHeight <= 0:
		return fmt.Errorf("arch: mesh %dx%d must be positive", c.MeshWidth, c.MeshHeight)
	case c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("arch: line size %d must be a positive power of two", c.LineSize)
	case c.PageSize <= 0 || c.PageSize&(c.PageSize-1) != 0:
		return fmt.Errorf("arch: page size %d must be a positive power of two", c.PageSize)
	case c.L1Ways <= 0 || c.L1Size%(c.L1Ways*c.LineSize) != 0:
		return fmt.Errorf("arch: L1 %dB/%d-way not divisible into sets of %dB lines", c.L1Size, c.L1Ways, c.LineSize)
	case c.L2Ways <= 0 || c.L2SliceSize%(c.L2Ways*c.LineSize) != 0:
		return fmt.Errorf("arch: L2 slice %dB/%d-way not divisible into sets of %dB lines", c.L2SliceSize, c.L2Ways, c.LineSize)
	case c.TLBWays <= 0 || c.TLBEntries%c.TLBWays != 0:
		return fmt.Errorf("arch: TLB %d entries not divisible by %d ways", c.TLBEntries, c.TLBWays)
	case c.MemControllers <= 0:
		return fmt.Errorf("arch: need at least one memory controller, have %d", c.MemControllers)
	case c.DRAMRegions%c.MemControllers != 0:
		return fmt.Errorf("arch: %d DRAM regions not divisible across %d controllers", c.DRAMRegions, c.MemControllers)
	case c.ClockHz <= 0:
		return fmt.Errorf("arch: clock %d Hz must be positive", c.ClockHz)
	}
	return nil
}

// TileGx72 returns the reconstructed Tile-Gx72 configuration used
// throughout the paper's evaluation: 64 cores on an 8x8 mesh at 1 GHz,
// 32 KB 8-way L1d, 256 KB 8-way L2 slice per core, 64 B lines, 32-entry
// private TLB with 4 KB pages, and 4 memory controllers serving 8
// physically isolated DRAM regions.
func TileGx72() Config {
	return Config{
		MeshWidth:  8,
		MeshHeight: 8,
		ClockHz:    1_000_000_000,

		L1Size:   32 << 10,
		L1Ways:   8,
		L1HitLat: 2,

		TLBEntries:  32,
		TLBWays:     4,
		PageSize:    4 << 10,
		PageWalkLat: 50,

		L2SliceSize: 256 << 10,
		L2Ways:      8,
		L2HitLat:    11,

		LineSize: 64,

		HopLat:            2,
		RouterLat:         4,
		LinkContentionLat: 2,

		MemControllers: 4,
		DRAMRegions:    8,
		MCQueueDepth:   16,
		MCServiceLat:   12,
		DRAMLat:        105,
		MCDrainLat:     60,

		PipelineFlushLat: 200,

		SGXEntryExitLat:  5_000, // 5us at 1 GHz (HotCalls upper bound)
		OSSwitchLat:      2_000,
		PurgeKernelLat:   120_000, // fences + secure-kernel orchestration
		L1FlushLineLat:   110,     // dummy-buffer reads mostly miss to L2/DRAM
		TLBFlushLat:      2_000,
		RehomePageLat:    4_000,
		BarrierBaseLat:   600,
		AtomicContention: 1_300,

		ProtocolDilation: 1,
	}
}

// TileGx72Scaled returns the evaluation configuration: the full-fidelity
// machine with the per-event protocol constants divided by the dilation
// factor. The paper's applications run milliseconds of work between
// interactions (5.3 ms per user-level input against a 0.19 ms purge); a
// software simulator cannot afford millisecond rounds at 64-core scale,
// so the experiment harness shrinks the rounds and shrinks the protocol
// constants by the same factor, preserving the overhead-to-work ratios
// the paper's figures are built on. Reports multiply per-event costs back
// by ProtocolDilation when quoting wall-clock equivalents. The
// substitution is documented in DESIGN.md.
func TileGx72Scaled(dilation int64) Config {
	cfg := TileGx72()
	if dilation <= 1 {
		return cfg
	}
	cfg.SGXEntryExitLat /= dilation
	cfg.OSSwitchLat /= dilation
	cfg.PurgeKernelLat /= dilation
	cfg.L1FlushLineLat = max64(1, cfg.L1FlushLineLat/dilation)
	cfg.TLBFlushLat /= dilation
	cfg.RehomePageLat = max64(1, cfg.RehomePageLat/dilation)
	cfg.ProtocolDilation = dilation
	return cfg
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Abs returns the absolute value of x. Mesh-geometry code across the
// packages shares this helper (hop counts and Manhattan distances).
func Abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
