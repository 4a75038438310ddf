package cache

import (
	"testing"
	"testing/quick"

	"ironhide/internal/arch"
)

func TestHashForHomeDeterministicAndContained(t *testing.T) {
	p := HashForHome{}
	candidates := []SliceID{3, 7, 11, 20}
	seen := map[SliceID]bool{}
	for page := uint64(0); page < 4096; page++ {
		h := p.HomeFor(page, candidates)
		if h2 := p.HomeFor(page, candidates); h2 != h {
			t.Fatalf("page %d rehomed from %d to %d", page, h, h2)
		}
		ok := false
		for _, c := range candidates {
			if c == h {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("page %d homed on %d, outside candidate set", page, h)
		}
		seen[h] = true
	}
	if len(seen) != len(candidates) {
		t.Fatalf("hash-for-home used %d of %d slices", len(seen), len(candidates))
	}
}

func TestHashForHomeSpread(t *testing.T) {
	p := HashForHome{}
	candidates := make([]SliceID, 64)
	for i := range candidates {
		candidates[i] = SliceID(i)
	}
	counts := make([]int, 64)
	const pages = 64 * 256
	for page := uint64(0); page < pages; page++ {
		counts[p.HomeFor(page, candidates)]++
	}
	for s, n := range counts {
		if n < 128 || n > 512 { // expect ~256 per slice
			t.Fatalf("slice %d holds %d pages; distribution badly skewed", s, n)
		}
	}
}

func TestLocalHomeRoundRobinAndPinning(t *testing.T) {
	p := NewLocalHome()
	candidates := []SliceID{2, 5}
	h0 := p.HomeFor(100, candidates)
	h1 := p.HomeFor(101, candidates)
	if h0 == h1 {
		t.Fatal("round-robin gave two consecutive pages the same home")
	}
	if again := p.HomeFor(100, candidates); again != h0 {
		t.Fatalf("page 100 moved from %d to %d without Rehome", h0, again)
	}
	if h, ok := p.HomeOf(101); !ok || h != h1 {
		t.Fatalf("HomeOf(101) = %d, %v; want %d", h, ok, h1)
	}
	if _, ok := p.HomeOf(102); ok {
		t.Fatal("a page never asked for has a home")
	}
}

func TestLocalHomeRehome(t *testing.T) {
	p := NewLocalHome()
	p.HomeFor(7, []SliceID{1})
	from, err := p.Rehome(7, 9)
	if err != nil || from != 1 {
		t.Fatalf("Rehome = (%d, %v), want (1, nil)", from, err)
	}
	if h, _ := p.HomeOf(7); h != 9 {
		t.Fatalf("page 7 homed on %d after rehome, want 9", h)
	}
	if _, err := p.Rehome(8, 9); err == nil {
		t.Fatal("rehoming an unmapped page succeeded")
	}
}

// Property: local homing never places a page outside the candidate set and
// is stable across repeated queries with different candidate sets.
func TestLocalHomeContainment(t *testing.T) {
	f := func(pages []uint16) bool {
		p := NewLocalHome()
		candidates := []SliceID{0, 8, 16, 24}
		for _, pg := range pages {
			h := p.HomeFor(uint64(pg), candidates)
			if h%8 != 0 || h > 24 {
				return false
			}
			// Stability even when queried with a different candidate list.
			if p.HomeFor(uint64(pg), []SliceID{63}) != h {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSliceArray(t *testing.T) {
	cfg := arch.TileGx72()
	sa := NewSliceArray(4, cfg)
	if sa.Len() != 4 {
		t.Fatalf("Len = %d", sa.Len())
	}
	sa.Slice(0).Access(0x40, true, arch.Secure)
	sa.Slice(3).Access(0x40, false, arch.Insecure)
	st := sa.AggregateStats()
	if st.Accesses != 2 || st.Misses != 2 {
		t.Fatalf("aggregate = %+v", st)
	}
	sa.ResetStats()
	if sa.AggregateStats().Accesses != 0 {
		t.Fatal("ResetStats left counters behind")
	}
	if sa.Slice(0).Occupancy() != 1 {
		t.Fatal("ResetStats disturbed contents")
	}
}

func TestPolicyNames(t *testing.T) {
	if (HashForHome{}).Name() != "hash-for-home" || NewLocalHome().Name() != "local-homing" {
		t.Fatal("policy names changed; reports depend on them")
	}
}
