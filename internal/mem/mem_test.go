package mem

import (
	"testing"
	"testing/quick"

	"ironhide/internal/arch"
)

func TestAccessLatencyIdle(t *testing.T) {
	cfg := arch.TileGx72()
	c := NewController(cfg)
	got := c.Access(0, false)
	if want := cfg.MCServiceLat + cfg.DRAMLat; got != want {
		t.Fatalf("idle access latency = %d, want %d", got, want)
	}
}

func TestAccessQueueing(t *testing.T) {
	cfg := arch.TileGx72()
	c := NewController(cfg)
	c.Access(0, false)
	// Second request at the same instant waits one service slot.
	got := c.Access(0, false)
	if want := cfg.MCServiceLat + cfg.MCServiceLat + cfg.DRAMLat; got != want {
		t.Fatalf("queued access latency = %d, want %d", got, want)
	}
	if c.Stats().Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", c.Stats().Stalls)
	}
}

func TestAccessBacklogBounded(t *testing.T) {
	cfg := arch.TileGx72()
	c := NewController(cfg)
	var worst int64
	for i := 0; i < 1000; i++ {
		if l := c.Access(0, false); l > worst {
			worst = l
		}
	}
	bound := int64(cfg.MCQueueDepth)*cfg.MCServiceLat + cfg.MCServiceLat + cfg.DRAMLat
	if worst > bound {
		t.Fatalf("worst latency %d exceeds queue-depth bound %d", worst, bound)
	}
}

func TestWriteFillsQueueAndPurgeDrains(t *testing.T) {
	cfg := arch.TileGx72()
	c := NewController(cfg)
	for i := 0; i < 5; i++ {
		c.Access(int64(i*1000), true)
	}
	if got := c.QueueOccupancy(); got != 5 {
		t.Fatalf("queue occupancy = %d, want 5", got)
	}
	cost := c.Purge()
	if want := 5 * cfg.MCDrainLat; cost != want {
		t.Fatalf("purge cost = %d, want %d", cost, want)
	}
	if c.QueueOccupancy() != 0 {
		t.Fatal("queue survived purge")
	}
}

func TestQueueOccupancyCapped(t *testing.T) {
	cfg := arch.TileGx72()
	c := NewController(cfg)
	for i := 0; i < 1000; i++ {
		c.Access(int64(i), true)
	}
	if got := c.QueueOccupancy(); got > int64(cfg.MCQueueDepth) {
		t.Fatalf("occupancy %d exceeds depth %d", got, cfg.MCQueueDepth)
	}
}

func TestPartitionAssign(t *testing.T) {
	cfg := arch.TileGx72()
	p := NewPartition(cfg)
	if p.Regions() != 8 || p.Controllers() != 4 {
		t.Fatalf("geometry %d regions / %d controllers", p.Regions(), p.Controllers())
	}
	// The paper's example: pos=0b0011 gives MC0, MC1 to the secure cluster.
	if err := p.AssignDomains(0b0011); err != nil {
		t.Fatal(err)
	}
	if p.ControllerDomain(0) != arch.Secure || p.ControllerDomain(1) != arch.Secure {
		t.Fatal("MC0/MC1 not secure")
	}
	if p.ControllerDomain(2) != arch.Insecure || p.ControllerDomain(3) != arch.Insecure {
		t.Fatal("MC2/MC3 not insecure")
	}
	if !p.Isolated() {
		t.Fatal("partition not isolated")
	}
	// Regions interleave across controllers: region r -> controller r%4,
	// so regions 0,1,4,5 are secure.
	secure := p.RegionsOf(arch.Secure)
	want := []int{0, 1, 4, 5}
	if len(secure) != len(want) {
		t.Fatalf("secure regions %v, want %v", secure, want)
	}
	for i := range want {
		if secure[i] != want[i] {
			t.Fatalf("secure regions %v, want %v", secure, want)
		}
	}
}

func TestPartitionRejectsDegenerateMasks(t *testing.T) {
	p := NewPartition(arch.TileGx72())
	for _, mask := range []uint{0, 0b1111, 0b10000} {
		if err := p.AssignDomains(mask); err == nil {
			t.Errorf("mask %#b accepted", mask)
		}
	}
}

func TestPartitionShared(t *testing.T) {
	p := NewPartition(arch.TileGx72())
	if err := p.AssignDomains(0b0011); err != nil {
		t.Fatal(err)
	}
	p.Shared()
	if p.Isolated() {
		t.Fatal("shared partition claims isolation")
	}
	if len(p.RegionsOf(arch.Insecure)) != p.Regions() {
		t.Fatal("shared partition left secure regions behind")
	}
}

// RegionsOf is read on every page allocation, so it must allocate
// nothing, and the index it returns must match a full scan of the owners
// after every kind of ownership change.
func TestRegionsOfIndexMatchesScan(t *testing.T) {
	p := NewPartition(arch.TileGx72())
	check := func(step string) {
		t.Helper()
		for _, d := range []arch.Domain{arch.Insecure, arch.Secure} {
			var want []int
			for r := 0; r < p.Regions(); r++ {
				if p.OwnerOf(r) == d {
					want = append(want, r)
				}
			}
			got := p.RegionsOf(d)
			if len(got) != len(want) {
				t.Fatalf("%s: %v regions %v, scan %v", step, d, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: %v regions %v, scan %v", step, d, got, want)
				}
			}
			if n := testing.AllocsPerRun(10, func() { _ = p.RegionsOf(d) }); n != 0 {
				t.Fatalf("%s: RegionsOf(%v) made %.0f allocs", step, d, n)
			}
		}
	}
	check("new")
	if err := p.AssignDomains(0b0011); err != nil {
		t.Fatal(err)
	}
	check("assign 0b0011")
	p.Shared()
	check("shared")
	if err := p.AssignDomains(0b0100); err != nil {
		t.Fatal(err)
	}
	check("assign 0b0100")
}

// Property: every region's owner always matches its controller's domain
// after any valid mask assignment — the routing invariant that keeps a
// domain's traffic on its own controllers.
func TestRegionControllerDomainAgreement(t *testing.T) {
	cfg := arch.TileGx72()
	f := func(maskRaw uint8) bool {
		mask := uint(maskRaw) & 0b1111
		p := NewPartition(cfg)
		if err := p.AssignDomains(mask); err != nil {
			return mask == 0 || mask == 0b1111 // only degenerate masks fail
		}
		for r := 0; r < p.Regions(); r++ {
			if p.OwnerOf(r) != p.ControllerDomain(p.ControllerOf(r)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResetStats(t *testing.T) {
	c := NewController(arch.TileGx72())
	c.Access(0, true)
	c.Access(0, false) // waits behind the first request
	if c.Stats().Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", c.Stats().Stalls)
	}
	c.ResetStats()
	if c.Stats().Stalls != 0 {
		t.Fatal("stalls survived reset")
	}
	if c.QueueOccupancy() != 1 {
		t.Fatal("reset disturbed queue contents")
	}
	// The queue model's clock survives too: the server is still busy.
	if c.Access(0, false); c.Stats().Stalls != 1 {
		t.Fatal("reset idled the busy controller")
	}
}
