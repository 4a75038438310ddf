package ironhide

import (
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/core"
	"ironhide/internal/driver"
	"ironhide/internal/enclave"
)

// TestHeadlineClaim checks the size of the paper's headline, not only its
// direction: on <MEMCACHED, OS>, MI6's purge on every interaction must
// cost at least 1.5x IRONHIDE's completion time with a 24-core secure
// cluster. The paper reports ~2.1x over the whole catalog.
//
// This single-app floor stands in for the per-figure-cell regression
// bands ROADMAP.md plans; that table must cover it before it goes.
func TestHeadlineClaim(t *testing.T) {
	cfg := arch.TileGx72Scaled(12)
	entry := appEntry(t, "<MEMCACHED, OS>")
	mi6, err := driver.Run(cfg, enclave.MulticoreMI6{}, entry.Factory, driver.Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ih, err := driver.Run(cfg, core.New(32), entry.Factory, driver.Options{Scale: 0.05, FixedSecureCores: 24})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(mi6.CompletionCycles) / float64(ih.CompletionCycles)
	if ratio < 1.5 {
		t.Fatalf("MI6/IRONHIDE = %.2f; the headline claim collapsed", ratio)
	}
	t.Logf("MI6/IRONHIDE = %.2f", ratio)
}
