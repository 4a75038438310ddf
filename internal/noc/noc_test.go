package noc

import (
	"testing"
	"testing/quick"

	"ironhide/internal/arch"
)

func TestPathXY(t *testing.T) {
	p := Path(xy(0, 0), xy(2, 1), XY)
	want := []arch.Coord{xy(0, 0), xy(1, 0), xy(2, 0), xy(2, 1)}
	if len(p) != len(want) {
		t.Fatalf("path %v, want %v", p, want)
	}
	for i := range p {
		if p[i] != want[i] {
			t.Fatalf("path %v, want %v", p, want)
		}
	}
}

func TestPathYX(t *testing.T) {
	p := Path(xy(0, 0), xy(2, 1), YX)
	want := []arch.Coord{xy(0, 0), xy(0, 1), xy(1, 1), xy(2, 1)}
	for i := range p {
		if p[i] != want[i] {
			t.Fatalf("path %v, want %v", p, want)
		}
	}
}

func TestPathSelf(t *testing.T) {
	p := Path(xy(3, 3), xy(3, 3), XY)
	if len(p) != 1 {
		t.Fatalf("self path has %d routers", len(p))
	}
}

func TestPathEndpointsAndLength(t *testing.T) {
	f := func(ax, ay, bx, by uint8, yx bool) bool {
		src := xy(int(ax%8), int(ay%8))
		dst := xy(int(bx%8), int(by%8))
		ord := XY
		if yx {
			ord = YX
		}
		p := Path(src, dst, ord)
		return p[0] == src && p[len(p)-1] == dst && len(p) == Dist(src, dst)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatency(t *testing.T) {
	cfg := arch.TileGx72()
	m := New(cfg)
	p := Path(xy(0, 0), xy(3, 0), XY) // 3 hops
	if got, want := m.Latency(p), cfg.RouterLat+3*cfg.HopLat; got != want {
		t.Fatalf("latency = %d, want %d", got, want)
	}
	if got := m.Latency(Path(xy(1, 1), xy(1, 1), XY)); got != cfg.RouterLat {
		t.Fatalf("local latency = %d, want router overhead only", got)
	}
}

// A route conflicts on each directed link another tenant crossed last,
// and ResetOwners forgets every stamp.
func TestTrafficAccounting(t *testing.T) {
	m := New(arch.TileGx72())
	m.EnableOwnerTracking()
	for _, step := range []struct {
		src, dst arch.Coord
		owner    int8
		want     int64
	}{
		{xy(0, 0), xy(2, 0), 1, 0}, // unowned links
		{xy(0, 0), xy(2, 0), 1, 0}, // its own links
		{xy(1, 0), xy(3, 0), 2, 1}, // takes over (1,0)->(2,0)
		{xy(2, 0), xy(0, 0), 2, 0}, // the opposite links are others
		{xy(0, 0), xy(3, 0), 1, 2}, // takes back (1,0)->(2,0), takes (2,0)->(3,0)
	} {
		if got := m.RecordRoute(step.src, step.dst, XY, step.owner); got != step.want {
			t.Fatalf("tenant %d %v->%v: %d conflicts, want %d", step.owner, step.src, step.dst, got, step.want)
		}
	}
	m.ResetOwners()
	if got := m.RecordRoute(xy(3, 0), xy(0, 0), XY, 2); got != 0 {
		t.Fatalf("%d conflicts after ResetOwners, want 0", got)
	}
}

// The central strong-isolation property (paper Section III-B2): for any
// contiguous row-major split of the 8x8 mesh and any two cores in the same
// cluster, at least one of X-Y or Y-X routing keeps the packet inside the
// cluster. This is why IRONHIDE requires bidirectional routing.
func TestBidirectionalRoutingContainment(t *testing.T) {
	cfg := arch.TileGx72()
	for secure := 0; secure <= cfg.Cores(); secure++ {
		split, err := NewSplit(secure, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, cl := range []Cluster{SecureCluster, InsecureCluster} {
			member := split.Member(cl)
			cores := split.Cores(cl)
			for _, a := range cores {
				for _, b := range cores {
					src, dst := cfg.CoordOf(a), cfg.CoordOf(b)
					if _, _, err := Route(src, dst, member); err != nil {
						t.Fatalf("secure=%d cluster=%v: %v", secure, cl, err)
					}
				}
			}
		}
	}
}

// X-Y alone is NOT sufficient: demonstrate at least one split and pair for
// which the X-Y path drifts outside the cluster (the motivation for Y-X).
func TestXYAloneInsufficient(t *testing.T) {
	cfg := arch.TileGx72()
	split, err := NewSplit(4, cfg) // secure = cores 0..3, half of row 0
	if err != nil {
		t.Fatal(err)
	}
	member := split.Member(InsecureCluster)
	// Core 4 (4,0) and core 12 (4,1) are both insecure; X-Y from (4,1) to
	// (0,1)... choose a pair whose X-Y path crosses the secure prefix:
	src := cfg.CoordOf(12) // (4,1) insecure
	dst := cfg.CoordOf(4)  // (4,0) insecure
	_ = dst
	// (4,1)->(4,0) is a straight column, fine. The interesting pair is
	// (7,0) -> (4,1)? X-Y goes (7,0)..(4,0) then down: stays insecure.
	// (4,1) -> (7,0): X-Y goes along row 1 (insecure) then up col 7: fine.
	// The drift case is an X-Y route along the split row through the other
	// cluster's cells: (0,1)? that's insecure. Take src=(0,1), dst=(7,0):
	// X-Y walks row 1 then climbs col 7 — contained. src=(7,0), dst=(0,1):
	// X-Y walks row 0 right-to-left through (3,0)..(0,0) = SECURE cells.
	src = cfg.CoordOf(7) // (7,0) insecure (row 0, x>=4)
	dst = cfg.CoordOf(8) // (0,1) insecure
	if Contained(Path(src, dst, XY), member) {
		t.Fatal("expected X-Y drift through the secure prefix; model changed?")
	}
	if !Contained(Path(src, dst, YX), member) {
		t.Fatal("Y-X should contain this route")
	}
	path, ord, err := Route(src, dst, member)
	if err != nil || ord != YX {
		t.Fatalf("Route picked %v/%v, want Y-X", ord, err)
	}
	if !Contained(path, member) {
		t.Fatal("chosen route not contained")
	}
}

// Property-based variant over random splits and random core pairs.
func TestRoutingContainmentQuick(t *testing.T) {
	cfg := arch.TileGx72()
	f := func(secRaw, aRaw, bRaw uint8) bool {
		secure := int(secRaw) % (cfg.Cores() + 1)
		split, err := NewSplit(secure, cfg)
		if err != nil {
			return false
		}
		a := arch.CoreID(int(aRaw) % cfg.Cores())
		b := arch.CoreID(int(bRaw) % cfg.Cores())
		if split.ClusterOf(a) != split.ClusterOf(b) {
			return true // cross-cluster traffic is the IPC path, not covered here
		}
		member := split.Member(split.ClusterOf(a))
		path, _, err := Route(cfg.CoordOf(a), cfg.CoordOf(b), member)
		return err == nil && Contained(path, member)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// The owner stamps show where a cluster's traffic went: a drifting route
// stamps links outside the cluster, the chosen route none.
func TestTrafficThroughDetectsDrift(t *testing.T) {
	cfg := arch.TileGx72()
	m := New(cfg)
	m.EnableOwnerTracking()
	split, _ := NewSplit(4, cfg)
	member := split.Member(InsecureCluster)
	src, dst := cfg.CoordOf(7), cfg.CoordOf(8)
	// A deliberately bad route: X-Y drifts through the secure prefix.
	m.RecordRoute(src, dst, XY, 1)
	if stampedOutside(m, member) == 0 {
		t.Fatal("drifting traffic not detected")
	}
	m.ResetOwners()
	_, ord, err := Route(src, dst, member)
	if err != nil {
		t.Fatal(err)
	}
	m.RecordRoute(src, dst, ord, 1)
	if n := stampedOutside(m, member); n != 0 {
		t.Fatalf("contained route stamped %d links outside its cluster", n)
	}
}

// stampedOutside counts the stamped directed links with an endpoint
// outside member.
func stampedOutside(m *Mesh, member func(arch.Coord) bool) int {
	n := 0
	for li, owner := range m.lastUser {
		if owner == 0 {
			continue
		}
		from := arch.Coord{X: li / linkDirs % m.W, Y: li / linkDirs / m.W}
		to := from
		switch li % linkDirs {
		case dirEast:
			to.X++
		case dirWest:
			to.X--
		case dirSouth:
			to.Y++
		case dirNorth:
			to.Y--
		}
		if !member(from) || !member(to) {
			n++
		}
	}
	return n
}

func TestOrderString(t *testing.T) {
	if XY.String() != "X-Y" || YX.String() != "Y-X" {
		t.Fatal("order names changed")
	}
}

func xy(x, y int) arch.Coord { return arch.Coord{X: x, Y: y} }
