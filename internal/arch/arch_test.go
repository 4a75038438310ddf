package arch

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTileGx72Valid(t *testing.T) {
	cfg := TileGx72()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if got := cfg.Cores(); got != 64 {
		t.Fatalf("Cores() = %d, want 64", got)
	}
	if got := cfg.L1Sets(); got != 64 {
		t.Fatalf("L1Sets() = %d, want 64", got)
	}
	if got := cfg.L2Sets(); got != 512 {
		t.Fatalf("L2Sets() = %d, want 512", got)
	}
}

func TestCoordRoundTrip(t *testing.T) {
	cfg := TileGx72()
	for id := CoreID(0); int(id) < cfg.Cores(); id++ {
		at := cfg.CoordOf(id)
		if back := cfg.CoreAt(at); back != id {
			t.Fatalf("CoreAt(CoordOf(%d)) = %d", id, back)
		}
		if at.X < 0 || at.X >= cfg.MeshWidth || at.Y < 0 || at.Y >= cfg.MeshHeight {
			t.Fatalf("core %d coordinate %v off mesh", id, at)
		}
	}
}

func TestCoordOfKnownPositions(t *testing.T) {
	cfg := TileGx72()
	cases := []struct {
		id   CoreID
		want Coord
	}{
		{0, Coord{0, 0}},
		{7, Coord{7, 0}},
		{8, Coord{0, 1}},
		{63, Coord{7, 7}},
	}
	for _, c := range cases {
		if got := cfg.CoordOf(c.id); got != c.want {
			t.Errorf("CoordOf(%d) = %v, want %v", c.id, got, c.want)
		}
	}
}

func TestCycleTimeConversion(t *testing.T) {
	cfg := TileGx72()
	if d := cfg.CyclesToDuration(1_000_000_000); d != time.Second {
		t.Fatalf("1e9 cycles at 1GHz = %v, want 1s", d)
	}
	if d := cfg.CyclesToDuration(5_000); d != 5*time.Microsecond {
		t.Fatalf("5000 cycles = %v, want 5us", d)
	}
}

func TestCycleConversionRoundTrip(t *testing.T) {
	cfg := TileGx72()
	f := func(n uint32) bool {
		cycles := int64(n)
		d := cfg.CyclesToDuration(cycles)
		back := int64(d/time.Second)*cfg.ClockHz + int64(d%time.Second)*cfg.ClockHz/int64(time.Second)
		return back == cycles
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBroken(t *testing.T) {
	broken := []func(*Config){
		func(c *Config) { c.MeshWidth = 0 },
		func(c *Config) { c.LineSize = 48 },
		func(c *Config) { c.PageSize = 3000 },
		func(c *Config) { c.L1Ways = 7 },
		func(c *Config) { c.L2Ways = 0 },
		func(c *Config) { c.TLBWays = 5 },
		func(c *Config) { c.MemControllers = 0 },
		func(c *Config) { c.DRAMRegions = 7 },
		func(c *Config) { c.ClockHz = 0 },
	}
	for i, mutate := range broken {
		cfg := TileGx72()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted a broken config", i)
		}
	}
}

func TestDomainString(t *testing.T) {
	if Insecure.String() != "insecure" || Secure.String() != "secure" {
		t.Fatal("domain names changed")
	}
	if Domain(9).String() != "domain(9)" {
		t.Fatal("unknown domain formatting changed")
	}
}

func TestAbs(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 0}, {5, 5}, {-5, 5}, {-1, 1}} {
		if got := Abs(tc.in); got != tc.want {
			t.Errorf("Abs(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
