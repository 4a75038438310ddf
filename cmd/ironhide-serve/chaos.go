package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ironhide/internal/service"
	"ironhide/internal/store"
)

// chaosKeys counts the traces the chaos selftest commits before the kill,
// and the captures in flight at it.
const chaosKeys = 3

// runChaos is the fault-injection harness's end-to-end act: everything
// internal/store proves against simulated filesystems, demonstrated on a
// real daemon. It re-executes this binary as a serving child with a temp
// -store, commits traces, SIGKILLs the child while more captures are in
// flight, corrupts one committed entry on disk, restarts the child, and
// asserts warm recovery: stored traces replay without re-capture, the
// corrupted entry is quarantined and transparently re-captured, every
// response is byte-identical across the crash, and a SIGTERM drains the
// daemon to a clean exit. Returns the process exit code.
func runChaos(scale float64, dilation int64) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "chaos-selftest: FAIL: "+format+"\n", args...)
		return 1
	}
	entry, _, err := service.Resolve(selftestApp, "IRONHIDE")
	if err != nil {
		return fail("%v", err)
	}
	d, err := newDaemon()
	if err != nil {
		return fail("%v", err)
	}
	defer d.close()
	fmt.Printf("ironhide-serve chaos-selftest: %s at scale %g, store %s, daemon on %s\n", selftestApp, scale, d.store, d.url)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := d.start(ctx, dilation); err != nil {
		return fail("%v", err)
	}
	cl := &service.Client{BaseURL: d.url, MaxRetries: 4, Backoff: 50 * time.Millisecond}

	// Phase 1: commit chaosKeys traces and remember the exact responses.
	query := func(seed int64) service.Query {
		return service.Query{App: selftestApp, Model: "IRONHIDE", Scale: scale, Seed: seed}
	}
	committedSeeds := make([]int64, chaosKeys)
	committed := map[int64]json.RawMessage{}
	for i := range committedSeeds {
		seed := int64(100 + i)
		committedSeeds[i] = seed
		var body json.RawMessage
		if _, err := cl.PostJSON(ctx, "/v1/run", query(seed), &body); err != nil {
			return fail("commit seed %d: %v", seed, err)
		}
		committed[seed] = body
	}
	fmt.Printf("  ✓ committed %d traces through the daemon\n", len(committed))

	// Phase 2: launch more captures and SIGKILL the daemon mid-flight —
	// no drain, no fsync-on-exit, exactly the crash the store's
	// temp+rename+sync protocol must absorb.
	var wg sync.WaitGroup
	inflightSeeds := make([]int64, chaosKeys)
	for i := range inflightSeeds {
		seed := int64(200 + i)
		inflightSeeds[i] = seed
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qctx, qcancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer qcancel()
			one := &service.Client{BaseURL: d.url, MaxRetries: 1, Backoff: 20 * time.Millisecond}
			_, _ = one.PostJSON(qctx, "/v1/run", query(seed), nil) // failure expected: we kill the server under it
		}(seed)
	}
	time.Sleep(300 * time.Millisecond)
	if err := d.kill(); err != nil {
		return fail("SIGKILL: %v", err)
	}
	wg.Wait()
	fmt.Println("  ✓ SIGKILLed the daemon with captures in flight")

	// Phase 3: deliberate disk rot on one committed entry. The restarted
	// daemon must quarantine it — never serve it.
	victimSeed := committedSeeds[0]
	victimKey := service.TraceKey{App: entry.Name, Scale: scale, Seed: victimSeed}.String()
	victimPath := filepath.Join(d.store, store.FileName(victimKey))
	rot, err := os.ReadFile(victimPath)
	if err != nil {
		return fail("read committed entry %s: %v", victimPath, err)
	}
	rot[len(rot)/2] ^= 0x40
	if err := os.WriteFile(victimPath, rot, 0o644); err != nil {
		return fail("corrupt entry: %v", err)
	}

	// Phase 4: restart and verify warm recovery.
	if err := d.start(ctx, dilation); err != nil {
		return fail("restart: %v", err)
	}
	var status service.StatusResponse
	if _, err := cl.GetJSON(ctx, "/v1/status", &status); err != nil {
		return fail("status after restart: %v", err)
	}
	if status.Store == nil {
		return fail("restarted daemon reports no store")
	}
	if status.Store.Quarantined < 1 {
		return fail("corrupted entry was not quarantined (store stats %+v)", *status.Store)
	}

	recaptures := 0
	for _, seed := range committedSeeds {
		var body json.RawMessage
		hdr, err := cl.PostJSON(ctx, "/v1/run", query(seed), &body)
		if err != nil {
			return fail("post-restart seed %d: %v", seed, err)
		}
		src := hdr.Get("X-Ironhide-Cache")
		if seed == victimSeed {
			if src != "capture" {
				return fail("corrupted seed %d served from %q — rot must force a re-capture, never be served", seed, src)
			}
			recaptures++
		} else if src == "capture" {
			return fail("committed seed %d re-captured after restart (source %q) — the store did not recover it", seed, src)
		}
		if !bytes.Equal(committed[seed], body) {
			return fail("seed %d response diverged across the crash:\npre-kill:  %s\npost-boot: %s", seed, committed[seed], body)
		}
	}
	fmt.Printf("  ✓ warm recovery: %d/%d traces served without re-capture, responses byte-identical across the crash\n",
		len(committedSeeds)-recaptures, len(committedSeeds))
	fmt.Println("  ✓ corrupted entry quarantined and re-captured, identical bytes — rot was never served")

	// The in-flight seeds may or may not have committed before the kill;
	// either way the daemon must answer them now, deterministically.
	for _, seed := range inflightSeeds {
		var first, second json.RawMessage
		if _, err := cl.PostJSON(ctx, "/v1/run", query(seed), &first); err != nil {
			return fail("in-flight seed %d after restart: %v", seed, err)
		}
		if _, err := cl.PostJSON(ctx, "/v1/run", query(seed), &second); err != nil {
			return fail("in-flight seed %d re-read: %v", seed, err)
		}
		if !bytes.Equal(first, second) {
			return fail("in-flight seed %d is non-deterministic after recovery", seed)
		}
	}
	fmt.Printf("  ✓ %d interrupted captures recovered or cleanly re-captured\n", len(inflightSeeds))

	// Phase 5: graceful drain — SIGTERM must exit 0 within the drain
	// window.
	if err := d.drain(); err != nil {
		return fail("%v", err)
	}
	fmt.Println("  ✓ SIGTERM drained to a clean exit")
	fmt.Println("chaos-selftest: PASS")
	return 0
}
