// Package runner executes experiment job grids concurrently. Every figure
// of the evaluation is a grid of independent (application × model ×
// options) simulations, each on its own fresh sim.Machine, so the sweep is
// embarrassingly parallel. The Runner fans a grid out over a bounded
// worker pool while keeping the results bit-identical to a sequential
// run: jobs get deterministic per-index seeds before dispatch, results
// come back ordered by job index, and nothing about the schedule leaks
// into the measurements.
package runner

import (
	"context"
	"fmt"
	"sync"

	"ironhide/internal/arch"
	"ironhide/internal/driver"
	"ironhide/internal/enclave"
	"ironhide/internal/trace"
)

// Job is one cell of an experiment grid: a captured workload trace
// replayed under a freshly constructed security model with the given
// driver options.
type Job struct {
	// Key labels the job in errors and logs, e.g. "<AES, QUERY>/MI6".
	Key string
	// Model builds a fresh model instance. A factory rather than a value
	// because models (IRONHIDE in particular) carry per-run mutable state
	// and must not be shared between concurrent jobs.
	Model func() enclave.Model
	// Opts tune the run. If Opts.Seed is zero the Runner assigns a
	// deterministic seed derived from its BaseSeed and the job's index.
	Opts driver.Options
	// Trace is the workload the job replays, captured at Opts.Scale. The
	// recorded address stream is model-independent, so a grid captures
	// each application once and shares the trace across its whole model ×
	// options axis. The trace is read-only during replay and safe to share
	// between concurrent jobs.
	Trace *trace.Trace
}

// Result pairs a job with its driver outcome, preserving grid order.
type Result struct {
	Job   Job
	Index int
	Res   *driver.Result
	Err   error
}

// Runner executes job grids on a worker pool.
type Runner struct {
	// Cfg is the machine configuration shared by all jobs.
	Cfg arch.Config
	// Workers bounds concurrency; <= 1 runs sequentially on the calling
	// goroutine, 0 is treated as 1. Use runtime.NumCPU() to saturate
	// the host.
	Workers int
	// BaseSeed anchors the deterministic per-job seeds (default 1).
	BaseSeed int64
	// Ctx, when non-nil, aborts the rest of the grid once cancelled:
	// jobs dispatched after cancellation fail with the context error
	// instead of running (a service abandons a timed-out batch instead
	// of burning the pool on results nobody will read).
	Ctx context.Context
}

// seedFor derives the job seed from the base seed and the job index.
func (r *Runner) seedFor(index int) int64 {
	base := r.BaseSeed
	if base == 0 {
		base = 1
	}
	return SeedFor(base, index)
}

// SeedFor derives the deterministic seed for grid position index under
// base. It depends only on grid position, never on scheduling, so
// sequential and parallel executions of the same grid run identical
// simulations. Exported so callers that pre-assign seeds (the service's
// grid endpoint seeds by request cell, even when failed captures compact
// the job list) agree with Runner.Run's assignment.
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

// Run executes the grid and returns one Result per job, ordered by job
// index regardless of completion order. Individual job failures are
// recorded in their Result and summarized in the returned error (the
// first failure by grid order), so a sweep reports every cell it could
// measure even when one cell fails.
func (r *Runner) Run(jobs []Job) ([]Result, error) {
	results, err := Map(r.Workers, jobs, func(i int, job Job) (Result, error) {
		if r.Ctx != nil {
			if err := r.Ctx.Err(); err != nil {
				err = fmt.Errorf("job %q: %w", job.Key, err)
				return Result{Job: job, Index: i, Err: err}, err
			}
		}
		opts := job.Opts
		if opts.Seed == 0 {
			opts.Seed = r.seedFor(i)
		}
		if job.Trace == nil {
			err := fmt.Errorf("job %q: no trace", job.Key)
			return Result{Job: job, Index: i, Err: err}, err
		}
		res, err := driver.RunTrace(r.Cfg, job.Model(), job.Trace, opts)
		if err != nil {
			err = fmt.Errorf("job %q: %w", job.Key, err)
		}
		return Result{Job: job, Index: i, Res: res, Err: err}, err
	})
	// Map already placed each job's Result (including failures) at its
	// index; surface the first error alongside the full result set.
	return results, err
}

// Map runs fn over items on up to workers goroutines and returns the
// results in input order. It is the concurrency substrate for job grids
// and for composite experiments (Figure 8 runs a whole per-application
// study as one item). All items are attempted even if some fail; the
// returned error is the first failure in input order.
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
