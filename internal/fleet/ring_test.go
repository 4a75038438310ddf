package fleet

import (
	"fmt"
	"testing"
	"time"
)

func shardNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://127.0.0.1:%d", 9000+i)
	}
	return out
}

func probeKeys(k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = fmt.Sprintf("<APP, %d>@1#%d", i%7, i)
	}
	return out
}

// Same seed + membership must yield an identical ownership map on every
// participant, regardless of the order the members were listed in — that
// is the whole coordination-free premise.
func TestRingDeterministicOwnership(t *testing.T) {
	members := shardNames(5)
	reversed := make([]string, len(members))
	for i, m := range members {
		reversed[len(members)-1-i] = m
	}
	a := NewRing(members, 42, 64)
	b := NewRing(reversed, 42, 64)
	c := NewRing(append(append([]string{}, members...), members...), 42, 64) // duplicates collapse
	for _, key := range probeKeys(500) {
		wa, wb, wc := a.Owner(key), b.Owner(key), c.Owner(key)
		if wa != wb || wa != wc {
			t.Fatalf("owner of %q differs across identically configured rings: %q / %q / %q", key, wa, wb, wc)
		}
		ra, rb := a.Owners(key, 3), b.Owners(key, 3)
		if fmt.Sprint(ra) != fmt.Sprint(rb) {
			t.Fatalf("replica set of %q differs: %v vs %v", key, ra, rb)
		}
	}
	// A different seed must actually move placement (else the seed is
	// decorative).
	d := NewRing(members, 43, 64)
	moved := 0
	for _, key := range probeKeys(500) {
		if a.Owner(key) != d.Owner(key) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("changing the seed moved no keys — placement ignores the seed")
	}
}

// A single-member ring owns every key with a full, duplicate-free replica
// set of exactly itself — the degenerate fleet of one.
func TestRingSingleShardDegenerates(t *testing.T) {
	r := NewRing([]string{"http://one"}, 7, 64)
	for _, key := range probeKeys(100) {
		if got := r.Owner(key); got != "http://one" {
			t.Fatalf("single-shard owner = %q", got)
		}
		if got := r.Owners(key, 3); len(got) != 1 || got[0] != "http://one" {
			t.Fatalf("single-shard Owners(3) = %v, want exactly the one member", got)
		}
	}
}

// The replica set must never contain duplicates and never exceed the
// membership, for any requested size.
func TestRingReplicaSetNoDuplicates(t *testing.T) {
	for n := 1; n <= 8; n++ {
		r := NewRing(shardNames(n), 1, 32)
		for want := 1; want <= n+2; want++ {
			for _, key := range probeKeys(50) {
				owners := r.Owners(key, want)
				if len(owners) != min(want, n) {
					t.Fatalf("n=%d want=%d: got %d owners", n, want, len(owners))
				}
				seen := map[string]bool{}
				for _, o := range owners {
					if seen[o] {
						t.Fatalf("n=%d want=%d key=%q: duplicate replica %q in %v", n, want, key, o, owners)
					}
					seen[o] = true
				}
			}
		}
	}
}

// Join/leave movement: consistent hashing promises (a) exactly the keys
// that change hands involve the joining/leaving member, and (b) roughly
// K/N keys move. (a) is exact and asserted strictly; (b) is asserted with
// a generous factor — placement is deterministic, so this cannot flake.
func TestRingMovementBounded(t *testing.T) {
	const K = 2000
	keys := probeKeys(K)
	for n := 1; n <= 8; n++ {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			before := NewRing(shardNames(n), 9, 64)
			joiner := "http://127.0.0.1:9999"
			after := NewRing(append(shardNames(n), joiner), 9, 64)
			moved := 0
			for _, key := range keys {
				was, is := before.Owner(key), after.Owner(key)
				if was == is {
					continue
				}
				moved++
				if is != joiner {
					t.Fatalf("key %q moved %q → %q on join of %q — only the joiner may gain keys", key, was, is, joiner)
				}
			}
			expected := K / (n + 1)
			if moved == 0 {
				t.Fatalf("join moved no keys (expected ≈%d)", expected)
			}
			if moved > 2*expected+K/20 {
				t.Fatalf("join moved %d keys, expected ≈%d (bound %d)", moved, expected, 2*expected+K/20)
			}
			// Leave is the mirror image: removing the joiner must restore
			// the original ownership exactly, and only the leaver's keys
			// moved.
			for _, key := range keys {
				if before.Owner(key) != NewRing(shardNames(n), 9, 64).Owner(key) {
					t.Fatalf("rebuilding the ring changed ownership of %q", key)
				}
			}
			for _, key := range keys {
				was, is := after.Owner(key), before.Owner(key)
				if was != is && was != joiner {
					t.Fatalf("key %q moved %q → %q on leave of %q — only the leaver's keys may move", key, was, is, joiner)
				}
			}
		})
	}
}

// Ownership spread: with the default vnode count no member should own a
// grossly disproportionate share of a uniform key population.
func TestRingBalance(t *testing.T) {
	const K = 3000
	for n := 2; n <= 8; n++ {
		r := NewRing(shardNames(n), 1, DefaultVNodes)
		counts := map[string]int{}
		for _, key := range probeKeys(K) {
			counts[r.Owner(key)]++
		}
		mean := float64(K) / float64(n)
		for m, c := range counts {
			if float64(c) > 2*mean {
				t.Fatalf("n=%d: shard %s owns %d of %d keys (>2x mean %.0f)", n, m, c, K, mean)
			}
		}
	}
}

func TestRingNilAndEmpty(t *testing.T) {
	var nilRing *Ring
	if nilRing.Owner("k") != "" || nilRing.Owners("k", 2) != nil || nilRing.Len() != 0 {
		t.Fatal("nil ring must degenerate safely")
	}
	if r := NewRing(nil, 1, 8); r != nil {
		t.Fatal("empty membership must yield a nil ring")
	}
	if r := NewRing([]string{"", ""}, 1, 8); r != nil {
		t.Fatal("blank members must be dropped")
	}
}

func TestBreaker(t *testing.T) {
	clock := time.Unix(1000, 0)
	b := &Breaker{Threshold: 3, Cooldown: time.Second, now: func() time.Time { return clock }}
	if !b.Allow() {
		t.Fatal("fresh breaker must allow")
	}
	b.Failure()
	b.Failure()
	if !b.Allow() {
		t.Fatal("breaker opened below threshold")
	}
	b.Failure()
	if b.Allow() {
		t.Fatal("breaker must open at threshold consecutive failures")
	}
	if !b.Open() {
		t.Fatal("Open() = false at threshold consecutive failures")
	}
	// Cooldown not yet lapsed: still closed to traffic.
	clock = clock.Add(500 * time.Millisecond)
	if b.Allow() {
		t.Fatal("breaker admitted traffic before cooldown lapsed")
	}
	// After the cooldown exactly one probe gets through.
	clock = clock.Add(600 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker must admit a half-open probe after cooldown")
	}
	if b.Allow() {
		t.Fatal("breaker admitted a second concurrent probe")
	}
	// Failed probe re-opens for another full cooldown.
	b.Failure()
	if b.Allow() {
		t.Fatal("failed probe must re-open the breaker")
	}
	clock = clock.Add(1100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker must probe again after the second cooldown")
	}
	b.Success()
	if !b.Allow() || b.Open() {
		t.Fatal("successful probe must close the breaker")
	}
	// Success resets the consecutive count: two failures then success then
	// two failures must not open.
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.Open() {
		t.Fatal("non-consecutive failures must not open the breaker")
	}
}
