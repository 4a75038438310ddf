package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ironhide/internal/runner"
)

// loadWorkers is the benchmark's concurrency: client connections, runner
// workers and grid workers alike. One load process with at most nproc of
// each keeps the host from queueing work the measurement would then time.
func loadWorkers() int {
	return min(2, runtime.NumCPU())
}

// instance is one workload's set-up state. Operations are indexed: the
// inputs of operation i derive from the run seed and i alone, so every
// run with one seed issues the same operations in the same order.
type instance interface {
	// op runs operation i through the public surface, checks its output,
	// and returns its latency samples (one per operation, or one per
	// streamed phase).
	op(i int) ([]sample, error)
	// traced re-issues operation i as direct calls to the layers,
	// recording a span around each under parent.
	traced(t *tracer, parent, i int) error
	// begin marks the start of the measured window.
	begin() error
	// finish runs the checks that need the whole window (operations from
	// through to-1 ran) and returns the service counters it saw.
	finish(from, to int) (counters, []error)
	// ledger describes the inputs the layer probes run on.
	ledger() ledgerInputs
	close() error
}

// sample is one latency and the input kind it belongs to (see
// blockIndex): the request kind, or the catalog timeline and phase.
type sample struct {
	kind int
	d    time.Duration
}

// counters are a serving workload's cache counters over the window, read
// from /v1/status.
type counters struct {
	cacheHitFrac float64
	liveCaptures float64
	notes        []string
}

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	// clients is the closed loop's concurrency.
	clients int
	// opName says what one operation is, and sample what one latency
	// sample times: an operation, or one streamed phase of it.
	opName, sample string
	// unitSpan names the traced span whose duration corresponds to one
	// end-to-end latency sample, for residual_ms.
	unitSpan string
	setup    func(seed int64) (instance, error)
}

var workloads = []*workload{
	{
		name:     "paper-matrix",
		why:      "ironhide-sim fig1a/fig6/fig7: capture, search and replay of 9 apps x 4 models, no HTTP, store or fleet",
		clients:  1,
		opName:   "matrix",
		sample:   "matrix",
		unitSpan: "op",
		setup:    setupPaperMatrix,
	},
	{
		name:     "serve-warm",
		why:      "warm /v1/run and /v1/search over 4 cached traces: search + replay + HTTP/JSON, no capture or store",
		clients:  loadWorkers(),
		opName:   "request",
		sample:   "request",
		unitSpan: "op",
		setup:    setupServeWarm,
	},
	{
		name: "serve-cold",
		why:  "unique-seed /v1/run via the router to a 2-shard fleet: store read, peer fetch and capture in equal thirds",
		// One client: each request's write-through fsync would otherwise
		// queue behind the other client's placement and clean-up fsyncs,
		// timing the disk queue the benchmark itself builds.
		clients:  1,
		opName:   "request",
		sample:   "request",
		unitSpan: "op",
		setup:    setupServeCold,
	},
	{
		name: "scenario-stream",
		why:  "streamed 8-event scenario timelines, time-shared and co-tenant: resizes, purges, co-runs and stream framing",
		// One stream at a time: a phase takes a few milliseconds and the
		// engine already runs tenants on loadWorkers workers, so a second
		// stream would make each phase's latency a measure of what that
		// stream's co-run happened to be doing.
		clients:  1,
		opName:   "timeline",
		sample:   "phase",
		unitSpan: "scenario.phase",
		setup:    setupScenarioStream,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// maxSetups caps set-up repetitions.
const maxSetups = 15

// runOpts configure one workload run.
type runOpts struct {
	seconds float64
	trace   bool
	// Set-up runs at least setups times, and again while all set-ups so
	// far took under setupSeconds (at most maxSetups times); setup_s is
	// their median and the last one is measured. A set-up of tens of
	// milliseconds is dominated by disk and scheduler noise, and needs
	// more repetitions than one that runs a whole paper matrix.
	setups       int
	setupSeconds float64
	// spans, if set, receives the traced run's spans.
	spans string
}

// blockIndex maps operation i onto one of k input kinds so that every
// aligned block of k operations holds each kind exactly once, in a seeded
// order: the mix a window measures is the same for every seed, and only
// the order varies.
func blockIndex(seed int64, i, k int) int {
	rng := rand.New(rand.NewPCG(uint64(runner.SeedFor(seed, i/k)), uint64(k)))
	return rng.Perm(k)[i%k]
}

// loop runs fn as a closed loop on clients goroutines: each sends its next
// operation only when its previous one returned. Operations are taken in
// index order from first; at least one runs, and none starts after d.
func loop(clients int, d time.Duration, first int, fn func(i int) ([]sample, error), r *result) ([]sample, int, time.Duration) {
	var (
		mu      sync.Mutex
		samples []sample
		ran     atomic.Int64
		next    atomic.Int64
		wg      sync.WaitGroup
	)
	next.Store(int64(first))
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i > first && time.Since(start) >= d {
					return
				}
				s, err := fn(i)
				ran.Add(1)
				mu.Lock()
				if err != nil {
					r.fail(fmt.Errorf("op %d: %w", i, err))
				} else {
					samples = append(samples, s...)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, int(ran.Load()), time.Since(start)
}

// run measures one workload.
func run(w *workload, seed int64, o runOpts) *result {
	r := &result{Workload: w.name, Seed: seed, Trace: o.trace, Metrics: map[string]value{}}
	var inst instance
	var setupS []float64
	spent := 0.0
	for k := 0; k < max(o.setups, 1) || (spent < o.setupSeconds && k < maxSetups); k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				r.fail(fmt.Errorf("close set-up %d: %w", k, err))
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed); err == nil {
			// The warm-up is operation 0: it fills pools and caches, and its
			// output is checked like any other.
			_, err = inst.op(0)
		}
		if err != nil {
			r.Attempted++
			r.fail(fmt.Errorf("set-up: %w", err))
			if inst != nil {
				_ = inst.close()
			}
			return r
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		spent += setupS[k]
	}
	defer func() {
		if err := inst.close(); err != nil {
			r.fail(fmt.Errorf("close: %w", err))
		}
	}()

	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		// The traced run spends half its window measuring untraced (the
		// baseline residual_ms is taken against), a quarter re-issuing the
		// same stream as traced direct calls, then probes every layer.
		window /= 2
	}
	if err := inst.begin(); err != nil {
		r.fail(fmt.Errorf("begin window: %w", err))
		return r
	}
	samples, ops, elapsed := loop(w.clients, window, 1, inst.op, r)
	r.Attempted += ops
	cs, errs := inst.finish(1, 1+ops)
	for _, err := range errs {
		r.fail(err)
	}
	r.Notes = append(r.Notes, cs.notes...)

	lat := make([]float64, len(samples))
	byKind := map[int][]float64{}
	for i, s := range samples {
		lat[i] = float64(s.d.Nanoseconds()) / 1e6
		byKind[s.kind] = append(byKind[s.kind], lat[i])
	}
	r.set("setup_s", median(setupS), len(setupS))
	r.set("rss_peak_mb", peakRSSMB(), 1)
	r.set("op_p50_ms", medianOfKinds(byKind), len(lat))
	r.set("op_tail_ms", tail(lat), len(lat))
	r.set("ops_per_s", float64(ops)/elapsed.Seconds(), ops)
	r.Notes = append(r.Notes, fmt.Sprintf("%d %s latencies of %d input kinds over %d operations (one %s each) in %.1fs; op_tail_ms is %s",
		len(lat), w.sample, len(byKind), ops, w.opName, elapsed.Seconds(), tailKind(lat)))
	if !o.trace {
		return r
	}

	t := newTracer()
	tracedOps := func(i int) ([]sample, error) {
		root := t.begin("op", 0, i)
		err := inst.traced(t, root, i)
		t.end(root, 0)
		return nil, err
	}
	_, tops, _ := loop(w.clients, window/2, 1+ops, tracedOps, r)
	r.Attempted += tops
	runLedger(t, inst.ledger(), seed, r)
	layerMetrics(t, w, lat, cs, r)
	if o.spans != "" {
		if err := t.write(o.spans); err != nil {
			r.fail(err)
		}
	}
	return r
}

func tailKind(lat []float64) string {
	if _, err := percentile(lat, 90); err == nil {
		return "the nearest-rank p90"
	}
	return "the median (under 100 samples support no p90)"
}

// peakRSSMB is this process's peak resident set. Each workload runs in
// its own child process, so nothing carries over between workloads.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
