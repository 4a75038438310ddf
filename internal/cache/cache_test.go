package cache

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"ironhide/internal/arch"
)

func small() *Cache { return New(1024, 2, 64) } // 8 sets, 2 ways

func TestGeometry(t *testing.T) {
	c := small()
	if c.Sets() != 8 || c.Ways() != 2 || c.Lines() != 16 {
		t.Fatalf("geometry = %d sets/%d ways/%d lines", c.Sets(), c.Ways(), c.Lines())
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	cases := []struct{ size, ways, line int }{
		{0, 2, 64},          // empty
		{1024, 0, 64},       // no ways
		{1024, 2, 0},        // no line
		{96 * 2, 2, 96},     // non power-of-two line
		{64 * 2 * 3, 2, 64}, // 3 sets
	}
	for i, g := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New(%d,%d,%d) did not panic", i, g.size, g.ways, g.line)
				}
			}()
			New(g.size, g.ways, g.line)
		}()
	}
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if r := c.Access(0x1000, false, arch.Secure); r.Hit {
		t.Fatal("first access hit an empty cache")
	}
	if r := c.Access(0x1000, false, arch.Secure); !r.Hit {
		t.Fatal("second access to same line missed")
	}
	if r := c.Access(0x1038, false, arch.Secure); !r.Hit {
		t.Fatal("access within the same 64B line missed")
	}
	st := c.Stats()
	if st.Accesses != 3 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 3 accesses / 1 miss", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 2-way: 3 distinct lines in one set evict the LRU
	// All three map to set 0: tags differ, set bits identical.
	a0 := arch.Addr(0 << 9)
	a1 := arch.Addr(1 << 9)
	a2 := arch.Addr(2 << 9)
	c.Access(a0, false, arch.Secure)
	c.Access(a1, false, arch.Secure)
	c.Access(a0, false, arch.Secure) // a1 is now LRU
	r := c.Access(a2, false, arch.Secure)
	if !r.Evicted {
		t.Fatal("third line in a 2-way set did not evict")
	}
	if c.Contains(a1) {
		t.Fatal("LRU line a1 survived eviction")
	}
	if !c.Contains(a0) || !c.Contains(a2) {
		t.Fatal("MRU lines were evicted instead of LRU")
	}
}

func TestDirtyWriteBack(t *testing.T) {
	c := small()
	a0 := arch.Addr(0 << 9)
	a1 := arch.Addr(1 << 9)
	a2 := arch.Addr(2 << 9)
	c.Access(a0, true, arch.Secure) // dirty
	c.Access(a1, false, arch.Secure)
	r := c.Access(a2, false, arch.Secure) // evicts dirty a0
	if !r.WroteBack {
		t.Fatal("evicting a dirty line did not write back")
	}
	if got := c.Stats().WriteBacks; got != 1 {
		t.Fatalf("WriteBacks = %d, want 1", got)
	}
}

func TestVictimOwnerTracking(t *testing.T) {
	c := small()
	a0 := arch.Addr(0 << 9)
	a1 := arch.Addr(1 << 9)
	a2 := arch.Addr(2 << 9)
	c.Access(a0, false, arch.Secure)
	c.Access(a1, false, arch.Secure)
	r := c.Access(a2, false, arch.Insecure)
	if !r.Evicted || r.VictimOwner != arch.Secure || !r.VictimWasOther {
		t.Fatalf("cross-domain eviction not reported: %+v", r)
	}
}

func TestFlushInvalidate(t *testing.T) {
	c := small()
	// Three addresses in distinct sets so nothing evicts before the flush.
	c.Access(0x0000, true, arch.Secure)
	c.Access(0x0040, false, arch.Secure)
	c.Access(0x0080, false, arch.Insecure)
	fr := c.FlushInvalidate()
	if fr.Lines != 3 || fr.WrittenBack != 1 {
		t.Fatalf("flush = %+v, want 3 lines / 1 writeback", fr)
	}
	if c.Occupancy() != 0 {
		t.Fatal("lines survived FlushInvalidate")
	}
	if c.OccupancyByOwner(arch.Secure) != 0 {
		t.Fatal("secure lines survived FlushInvalidate")
	}
	// Purge completeness: nothing previously resident remains observable.
	for _, a := range []arch.Addr{0x0000, 0x0040, 0x0080} {
		if c.Contains(a) {
			t.Fatalf("address %#x still resident after purge", a)
		}
	}
}

func TestOccupancyByOwner(t *testing.T) {
	c := New(4096, 4, 64)
	for i := 0; i < 10; i++ {
		c.Access(arch.Addr(i*64), false, arch.Secure)
	}
	for i := 10; i < 14; i++ {
		c.Access(arch.Addr(i*64), false, arch.Insecure)
	}
	if s, in := c.OccupancyByOwner(arch.Secure), c.OccupancyByOwner(arch.Insecure); s != 10 || in != 4 {
		t.Fatalf("occupancy = %d secure / %d insecure, want 10/4", s, in)
	}
}

// Property: occupancy never exceeds capacity, and stats stay coherent
// (misses <= accesses, evictions <= misses), under arbitrary access streams.
func TestAccessStreamInvariants(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		c := New(2048, 4, 64)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n%2000); i++ {
			addr := arch.Addr(r.Intn(1 << 16))
			c.Access(addr, r.Intn(2) == 0, arch.Domain(r.Intn(2)))
		}
		st := c.Stats()
		return c.Occupancy() <= c.Lines() &&
			st.Misses <= st.Accesses &&
			st.Evictions <= st.Misses &&
			st.WriteBacks <= st.Evictions &&
			c.OccupancyByOwner(arch.Secure)+c.OccupancyByOwner(arch.Insecure) == c.Occupancy()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a just-accessed address is always resident (write-allocate).
func TestAccessInstallsLine(t *testing.T) {
	f := func(raw uint32, write bool) bool {
		c := New(1024, 2, 64)
		addr := arch.Addr(raw)
		c.Access(addr, write, arch.Secure)
		return c.Contains(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: after FlushInvalidate, occupancy is zero no matter the history.
func TestFlushAlwaysComplete(t *testing.T) {
	f := func(seed int64) bool {
		c := New(1024, 2, 64)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			c.Access(arch.Addr(r.Intn(1<<14)), r.Intn(2) == 0, arch.Domain(r.Intn(2)))
		}
		c.FlushInvalidate()
		return c.Occupancy() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetIndexStableWithinLine(t *testing.T) {
	c := small()
	if c.SetIndexOf(0x1000) != c.SetIndexOf(0x103F) {
		t.Fatal("addresses in one line map to different sets")
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("empty stats should have zero miss rate")
	}
	s = Stats{Accesses: 4, Misses: 1}
	if got := s.MissRate(); got != 0.25 {
		t.Fatalf("MissRate = %v, want 0.25", got)
	}
}

// A line is 24 bytes: the machine's resident size is dominated by its
// 294,912 lines, so growing the struct is a memory regression.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 24 {
		t.Fatalf("sizeof(line) = %d, want 24", got)
	}
}

// The 32-bit generation wraps to a cleared line array: after Reset or
// FlushInvalidate at MaxUint32 nothing is resident — neither the lines of
// the last generation nor older lines stamped with generation 1, which a
// wrap that skipped the clear would revive — the per-set MRU pointers
// (which still point at the old lines) do not hit, and a re-access
// misses, then hits.
func TestGenerationWrap(t *testing.T) {
	for _, tc := range []struct {
		name       string
		invalidate func(c *Cache)
	}{
		{"Reset", (*Cache).Reset},
		{"FlushInvalidate", func(c *Cache) { c.FlushInvalidate() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := small()
			old := []arch.Addr{0x0100, 0x0140} // stamped with generation 1
			live := []arch.Addr{0x0000, 0x0040, 0x0080, 0x0200}
			for _, a := range old {
				c.Access(a, true, arch.Insecure)
			}
			c.SetGenForTest(math.MaxUint32)
			for _, a := range live {
				c.Access(a, true, arch.Secure)
			}
			if got := c.Occupancy(); got != len(live) {
				t.Fatalf("occupancy before the wrap = %d, want %d", got, len(live))
			}
			if !c.HitMRU(live[1], false) {
				t.Fatal("resident MRU line missed before the wrap")
			}
			tc.invalidate(c)
			if got := c.Occupancy(); got != 0 {
				t.Fatalf("occupancy after the wrap = %d, want 0", got)
			}
			all := append(append([]arch.Addr(nil), old...), live...)
			for _, a := range all {
				if c.HitMRU(a, false) {
					t.Fatalf("stale MRU pointer hit %#x after the wrap", a)
				}
				if c.Contains(a) {
					t.Fatalf("%#x still resident after the wrap", a)
				}
			}
			for _, a := range all {
				if r := c.Access(a, false, arch.Insecure); r.Hit || r.Evicted {
					t.Fatalf("first access to %#x after the wrap = %+v, want a clean miss", a, r)
				}
				if r := c.Access(a, false, arch.Insecure); !r.Hit {
					t.Fatalf("second access to %#x after the wrap missed", a)
				}
			}
		})
	}
}
