package tlb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ironhide/internal/arch"
)

func TestMissThenHit(t *testing.T) {
	tb := New(32, 4)
	if tb.Lookup(5, arch.Secure) {
		t.Fatal("empty TLB hit")
	}
	if !tb.Lookup(5, arch.Secure) {
		t.Fatal("repeat lookup missed")
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	for i, g := range []struct{ entries, ways int }{{0, 1}, {32, 0}, {30, 4}, {24, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New(%d,%d) did not panic", i, g.entries, g.ways)
				}
			}()
			New(g.entries, g.ways)
		}()
	}
}

func TestLRUWithinSet(t *testing.T) {
	tb := New(4, 2) // 2 sets, 2 ways: vpns 0,2,4 share set 0
	tb.Lookup(0, arch.Secure)
	tb.Lookup(2, arch.Secure)
	tb.Lookup(0, arch.Secure) // 2 becomes LRU
	tb.Lookup(4, arch.Secure) // evicts 2
	if tb.Contains(2) {
		t.Fatal("LRU entry survived")
	}
	if !tb.Contains(0) || !tb.Contains(4) {
		t.Fatal("wrong victim chosen")
	}
}

func TestFlush(t *testing.T) {
	tb := New(32, 4)
	for v := uint64(0); v < 20; v++ {
		tb.Lookup(v, arch.Domain(v%2))
	}
	n := tb.Flush()
	if n != 20 {
		t.Fatalf("Flush dropped %d entries, want 20", n)
	}
	if tb.OccupancyByOwner(arch.Secure) != 0 || tb.OccupancyByOwner(arch.Insecure) != 0 {
		t.Fatal("entries survived flush")
	}
}

func TestOccupancyByOwner(t *testing.T) {
	tb := New(32, 4)
	for v := uint64(0); v < 6; v++ {
		tb.Lookup(v, arch.Secure)
	}
	for v := uint64(100); v < 103; v++ {
		tb.Lookup(v, arch.Insecure)
	}
	if s, i := tb.OccupancyByOwner(arch.Secure), tb.OccupancyByOwner(arch.Insecure); s != 6 || i != 3 {
		t.Fatalf("occupancy = %d/%d, want 6/3", s, i)
	}
}

// Property: a looked-up vpn is resident immediately afterwards.
func TestLookupInstalls(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		tb := New(16, 4)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n); i++ {
			v := uint64(r.Intn(256))
			tb.Lookup(v, arch.Domain(r.Intn(2)))
			if !tb.Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: flush completeness — after Flush no prior vpn remains.
func TestFlushComplete(t *testing.T) {
	f := func(vpns []uint16) bool {
		tb := New(32, 4)
		for _, v := range vpns {
			tb.Lookup(uint64(v), arch.Secure)
		}
		tb.Flush()
		for _, v := range vpns {
			if tb.Contains(uint64(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityBound(t *testing.T) {
	tb := New(8, 2)
	for v := uint64(0); v < 1000; v++ {
		tb.Lookup(v, arch.Secure)
	}
	if occ := tb.OccupancyByOwner(arch.Secure); occ > tb.Entries() {
		t.Fatalf("occupancy %d exceeds capacity %d", occ, tb.Entries())
	}
}
