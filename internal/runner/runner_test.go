package runner

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapOrderedResults(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{0, 1, 4, 16, 200} {
		got, err := Map(workers, items, func(i, v int) (int, error) { return v * 2, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != 2*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, 2*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map[int, int](8, nil, func(i, v int) (int, error) { t.Fatal("called"); return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty map = (%v, %v)", got, err)
	}
}

func TestMapFirstErrorByInputOrder(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	var calls atomic.Int32
	got, err := Map(4, items, func(i, v int) (int, error) {
		calls.Add(1)
		if v == 2 || v == 5 {
			return 0, fmt.Errorf("item %d failed", v)
		}
		return v, nil
	})
	if err == nil || !strings.Contains(err.Error(), "item 2") {
		t.Fatalf("err = %v, want the first failure by input order", err)
	}
	// Every item is attempted even after a failure, and successes land at
	// their index.
	if int(calls.Load()) != len(items) {
		t.Fatalf("%d calls, want %d", calls.Load(), len(items))
	}
	if got[7] != 7 || got[0] != 0 {
		t.Fatalf("successful results lost: %v", got)
	}
}

func TestSeedForIsDeterministic(t *testing.T) {
	for i := 0; i < 64; i++ {
		s := SeedFor(1, i)
		if s <= 0 {
			t.Fatalf("SeedFor(1, %d) = %d, want positive", i, s)
		}
		if s != SeedFor(1, i) {
			t.Fatalf("SeedFor(1, %d) not stable", i)
		}
		if i > 0 && s == SeedFor(1, i-1) {
			t.Fatalf("SeedFor(1, %d) collides with predecessor", i)
		}
	}
	if SeedFor(1, 0) == SeedFor(7, 0) {
		t.Fatal("base seed ignored")
	}
}
