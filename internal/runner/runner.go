// Package runner is an ordered worker pool. Every figure of the
// evaluation is a grid of independent simulations, each on its own
// machine, and Figure 8's Optimal oracle probes independent candidate
// bindings, so both fan out over Map. Results come back in input order and
// seeds derive from grid position (SeedFor), so nothing about the
// schedule leaks into the measurements: any worker count produces the
// same results as a sequential run.
package runner

import "sync"

// SeedFor derives the deterministic seed for grid position index under
// base. It depends only on grid position, never on scheduling, so
// sequential and parallel executions of the same grid run identical
// simulations.
func SeedFor(base int64, index int) int64 {
	// SplitMix64-style mix keeps adjacent indices' seeds uncorrelated.
	z := uint64(base) + uint64(index+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	s := int64(z &^ (1 << 63)) // keep it positive; 0 means "unseeded"
	if s == 0 {
		s = 1
	}
	return s
}

// Map runs fn over items on up to workers goroutines and returns the
// results in input order; workers <= 1 runs sequentially on the calling
// goroutine. All items are attempted even if some fail; the returned
// error is the first failure in input order.
func Map[T, R any](workers int, items []T, fn func(int, T) (R, error)) ([]R, error) {
	results := make([]R, len(items))
	errs := make([]error, len(items))
	if len(items) == 0 {
		return results, nil
	}
	if workers <= 1 {
		for i, it := range items {
			results[i], errs[i] = fn(i, it)
		}
		return results, firstError(errs)
	}
	if workers > len(items) {
		workers = len(items)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = fn(i, items[i])
			}
		}()
	}
	for i := range items {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, firstError(errs)
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
