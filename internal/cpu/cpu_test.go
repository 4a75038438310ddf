package cpu

import (
	"testing"
	"testing/quick"

	"ironhide/internal/arch"
)

func TestCoreClock(t *testing.T) {
	c := NewCore(3, arch.TileGx72())
	if c.ID() != 3 || c.Cycles() != 0 {
		t.Fatal("fresh core state wrong")
	}
	c.FlushPipeline()
	c.FlushPipeline()
	if c.Cycles() != 2*arch.TileGx72().PipelineFlushLat {
		t.Fatalf("cycles = %d after two flushes", c.Cycles())
	}
	c.Reset()
	if c.Cycles() != 0 || c.Flushes() != 0 {
		t.Fatal("Reset left the clock or flush count")
	}
}

func TestPipelineFlush(t *testing.T) {
	cfg := arch.TileGx72()
	c := NewCore(0, cfg)
	cost := c.FlushPipeline()
	if cost != cfg.PipelineFlushLat {
		t.Fatalf("flush cost = %d, want %d", cost, cfg.PipelineFlushLat)
	}
	if c.Cycles() != cfg.PipelineFlushLat || c.Flushes() != 1 {
		t.Fatal("flush not accounted on the core clock")
	}
}

func regionOwner(secure map[int]bool) func(int) arch.Domain {
	return func(r int) arch.Domain {
		if secure[r] {
			return arch.Secure
		}
		return arch.Insecure
	}
}

func TestSpecCheckerBlocksInsecureToSecure(t *testing.T) {
	sc := NewSpecChecker(true, regionOwner(map[int]bool{1: true}))
	if v := sc.Check(arch.Insecure, 1); v != Blocked {
		t.Fatalf("insecure->secure = %v, want blocked", v)
	}
	if v := sc.Check(arch.Insecure, 0); v != Allowed {
		t.Fatalf("insecure->insecure = %v, want allowed", v)
	}
	if sc.Blocked() != 1 || sc.Checked() != 2 {
		t.Fatalf("counters blocked=%d checked=%d", sc.Blocked(), sc.Checked())
	}
}

// The IPC asymmetry: the secure enclave may access insecure regions (the
// shared IPC buffer lives there) without violating strong isolation.
func TestSpecCheckerAllowsSecureToInsecure(t *testing.T) {
	sc := NewSpecChecker(true, regionOwner(map[int]bool{1: true}))
	if v := sc.Check(arch.Secure, 0); v != Allowed {
		t.Fatalf("secure->insecure(IPC) = %v, want allowed", v)
	}
	if v := sc.Check(arch.Secure, 1); v != Allowed {
		t.Fatalf("secure->secure = %v, want allowed", v)
	}
	if sc.Blocked() != 0 {
		t.Fatal("legitimate accesses were blocked")
	}
}

func TestSpecCheckerDisabled(t *testing.T) {
	sc := NewSpecChecker(false, regionOwner(map[int]bool{0: true, 1: true}))
	if v := sc.Check(arch.Insecure, 0); v != Allowed {
		t.Fatal("disabled checker blocked an access")
	}
	if sc.Checked() != 0 {
		t.Fatal("disabled checker counted checks")
	}
	if sc.Enabled() {
		t.Fatal("Enabled() wrong")
	}
}

// Property: the checker never blocks the secure domain and never allows an
// insecure access to a secure region when enabled.
func TestSpecCheckerPolicy(t *testing.T) {
	f := func(secureRegions []bool, dRaw bool, regionRaw uint8) bool {
		owners := map[int]bool{}
		for i, s := range secureRegions {
			owners[i] = s
		}
		sc := NewSpecChecker(true, regionOwner(owners))
		d := arch.Insecure
		if dRaw {
			d = arch.Secure
		}
		region := int(regionRaw) % (len(secureRegions) + 1)
		v := sc.Check(d, region)
		if d == arch.Secure {
			return v == Allowed
		}
		if owners[region] {
			return v == Blocked
		}
		return v == Allowed
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVerdictString(t *testing.T) {
	if Allowed.String() != "allowed" || Blocked.String() != "blocked" {
		t.Fatal("verdict names changed")
	}
}
