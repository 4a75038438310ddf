// Dynamic hardware isolation: IRONHIDE's core re-allocation. This example
// runs <TC, GRAPH> — whose secure triangle-counting process is
// synchronization-bound and prefers a tiny cluster (the paper allocates it
// just 2 secure cores) — at fixed cluster splits, then runs the gradient
// heuristic and the exhaustive Optimal search, and shows the
// secure kernel enforcing the once-per-invocation reconfiguration budget.
//
// Run with: go run ./examples/reconfig
package main

import (
	"fmt"
	"log"

	"ironhide/internal/apps"
	"ironhide/internal/arch"
	"ironhide/internal/core"
	"ironhide/internal/driver"
	"ironhide/internal/kernel"
	"ironhide/internal/metrics"
	"ironhide/internal/sim"
)

func main() {
	cfg := arch.TileGx72Scaled(12)
	entry, ok := apps.ByName("<TC, GRAPH>")
	if !ok {
		log.Fatal("application missing from catalog")
	}

	// Run a few fixed splits: completion as a function of the secure
	// cluster size (TC's atomics make big clusters counterproductive).
	// One capture serves every run and every search probe.
	opts := driver.Options{Scale: 0.1}
	tr, err := driver.CaptureTrace(cfg, entry.Factory, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("running <TC, GRAPH> at fixed secure-cluster sizes:")
	tb := metrics.NewTable("secure cores", "completion (cycles)")
	for _, k := range []int{2, 8, 16, 32, 48, 62} {
		res, err := driver.RunTrace(cfg, core.New(32), tr, driver.Options{Scale: opts.Scale, FixedSecureCores: k, WaiveReconfig: true})
		if err != nil {
			log.Fatal(err)
		}
		tb.Add(fmt.Sprintf("%d", k), fmt.Sprintf("%d", res.CompletionCycles))
	}
	fmt.Println(tb.String())

	// The gradient heuristic against the exhaustive oracle.
	h, err := driver.SearchTrace(cfg, core.New(32), tr, opts)
	if err != nil {
		log.Fatal(err)
	}
	o, err := driver.SearchTrace(cfg, core.New(32), tr, driver.Options{Scale: opts.Scale, Optimal: true, OptimalStride: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gradient heuristic: %d secure cores in %d probes\n", h.SecureCores, h.Probes)
	fmt.Printf("exhaustive optimal: %d secure cores in %d probes\n\n", o.SecureCores, o.Probes)

	// One dynamic hardware isolation event, budget-checked by the kernel.
	k := kernel.New()
	m, err := sim.NewMachine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ih := core.New(cfg.Cores() / 2)
	if err := ih.Configure(m); err != nil {
		log.Fatal(err)
	}
	m.NewSpace("TC", arch.Secure).Alloc("graph", 2<<20)
	m.NewSpace("GRAPH", arch.Insecure).Alloc("sensors", 2<<20)
	if err := k.AuthorizeReconfig(); err != nil {
		log.Fatal(err)
	}
	rr, err := ih.Reconfigure(m, h.SecureCores)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reconfigured %d -> %d secure cores: %d cores flushed, %d pages re-homed, %d cycles stall\n",
		rr.From, rr.To, rr.CoresMoved, rr.PagesMoved, rr.Cycles)
	if err := k.AuthorizeReconfig(); err != nil {
		fmt.Printf("second reconfiguration refused by the secure kernel: %v\n", err)
		fmt.Println("(the paper bounds scheduling-channel leakage by allowing one event per invocation)")
	}
}
