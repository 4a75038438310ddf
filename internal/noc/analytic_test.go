package noc

import (
	"slices"
	"testing"

	"ironhide/internal/arch"
)

// allCoords lists every router of the configured mesh.
func allCoords(cfg arch.Config) []arch.Coord {
	out := make([]arch.Coord, 0, cfg.Cores())
	for i := 0; i < cfg.Cores(); i++ {
		out = append(out, cfg.CoordOf(arch.CoreID(i)))
	}
	return out
}

// The analytic containment check must agree with materializing the path
// and testing every router, for every contiguous split, every pair of
// routers, both orderings, and both clusters.
func TestContainsOrderMatchesMaterializedPath(t *testing.T) {
	cfg := arch.TileGx72()
	coords := allCoords(cfg)
	for secure := 0; secure <= cfg.Cores(); secure++ {
		split, err := NewSplit(secure, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, cl := range []Cluster{SecureCluster, InsecureCluster} {
			member := split.Member(cl)
			for _, src := range coords {
				for _, dst := range coords {
					for _, ord := range []Order{XY, YX} {
						want := Contained(Path(src, dst, ord), member)
						if got := split.ContainsOrder(src, dst, cl, ord); got != want {
							t.Fatalf("secure=%d cluster=%v %v->%v %v: analytic=%v materialized=%v",
								secure, cl, src, dst, ord, got, want)
						}
					}
				}
			}
		}
	}
}

// The analytic chooser must pick exactly the ordering Route picks, and
// fail exactly when Route fails, for every split and router pair.
func TestChooseOrderMatchesRoute(t *testing.T) {
	cfg := arch.TileGx72()
	coords := allCoords(cfg)
	for secure := 0; secure <= cfg.Cores(); secure++ {
		split, err := NewSplit(secure, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, cl := range []Cluster{SecureCluster, InsecureCluster} {
			member := split.Member(cl)
			for _, src := range coords {
				for _, dst := range coords {
					_, wantOrd, wantErr := Route(src, dst, member)
					gotOrd, ok := split.ChooseOrder(src, dst, cl)
					if ok != (wantErr == nil) || gotOrd != wantOrd {
						t.Fatalf("secure=%d cluster=%v %v->%v: analytic=(%v,%v) materialized=(%v,%v)",
							secure, cl, src, dst, gotOrd, ok, wantOrd, wantErr)
					}
				}
			}
		}
	}
}

// Split.Contains must agree with the Member closure everywhere, including
// out-of-mesh coordinates.
func TestContainsMatchesMember(t *testing.T) {
	cfg := arch.TileGx72()
	split, err := NewSplit(13, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range []Cluster{SecureCluster, InsecureCluster} {
		member := split.Member(cl)
		for y := -1; y <= cfg.MeshHeight; y++ {
			for x := -1; x <= cfg.MeshWidth; x++ {
				at := arch.Coord{X: x, Y: y}
				if split.Contains(at, cl) != member(at) {
					t.Fatalf("cluster=%v %v: Contains disagrees with Member", cl, at)
				}
			}
		}
	}
}

// Analytic latency must equal the materialized-path latency for every
// router pair (both orderings cross the same number of links).
func TestLatencyBetweenMatchesPath(t *testing.T) {
	cfg := arch.TileGx72()
	m := New(cfg)
	coords := allCoords(cfg)
	for _, src := range coords {
		for _, dst := range coords {
			want := m.Latency(Path(src, dst, XY))
			if got := m.LatencyBetween(src, dst); got != want {
				t.Fatalf("%v->%v: LatencyBetween=%d Latency(Path)=%d", src, dst, got, want)
			}
			if wantYX := m.Latency(Path(src, dst, YX)); wantYX != want {
				t.Fatalf("%v->%v: X-Y and Y-X latencies differ", src, dst)
			}
		}
	}
}

// RecordRoute must stamp exactly the links of Path(...) and report the
// same conflicts as stamping them one by one, for every router pair and
// both orderings, under alternating tenants.
func TestRecordRouteMatchesRecord(t *testing.T) {
	cfg := arch.TileGx72()
	coords := allCoords(cfg)
	for _, ord := range []Order{XY, YX} {
		analytic, materialized := New(cfg), New(cfg)
		analytic.EnableOwnerTracking()
		materialized.EnableOwnerTracking()
		owner := int8(1)
		for _, src := range coords {
			for _, dst := range coords {
				owner = 3 - owner
				got := analytic.RecordRoute(src, dst, ord, owner)
				if want := recordPath(materialized, Path(src, dst, ord), owner); got != want {
					t.Fatalf("order %v %v->%v: RecordRoute %d conflicts, Path %d", ord, src, dst, got, want)
				}
			}
		}
		if !slices.Equal(analytic.lastUser, materialized.lastUser) {
			t.Fatalf("order %v: RecordRoute and Path stamped different links", ord)
		}
	}
}

// recordPath is RecordRoute's materialized reference: it stamps the link
// between each pair of successive routers of path.
func recordPath(m *Mesh, path []arch.Coord, owner int8) int64 {
	dirs := map[arch.Coord]int{{X: 1}: dirEast, {X: -1}: dirWest, {Y: 1}: dirSouth, {Y: -1}: dirNorth}
	var conflicts int64
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		li := (a.Y*m.W+a.X)*linkDirs + dirs[arch.Coord{X: b.X - a.X, Y: b.Y - a.Y}]
		if u := m.lastUser[li]; u != 0 && u != owner {
			conflicts++
		}
		m.lastUser[li] = owner
	}
	return conflicts
}

// RecordRoute must not allocate: it is the hot path's link accounting.
func TestRecordRouteZeroAlloc(t *testing.T) {
	cfg := arch.TileGx72()
	m := New(cfg)
	m.EnableOwnerTracking()
	src, dst := arch.Coord{X: 0, Y: 0}, arch.Coord{X: 7, Y: 7}
	if n := testing.AllocsPerRun(200, func() {
		m.RecordRoute(src, dst, XY, 1)
		m.RecordRoute(dst, src, YX, 2)
	}); n != 0 {
		t.Fatalf("RecordRoute allocates %.1f objects per run, want 0", n)
	}
	// Both endpoints inside the insecure cluster of a partial-row split.
	split, _ := NewSplit(13, cfg)
	insSrc := arch.Coord{X: 5, Y: 1} // core 13, first insecure core
	if _, ok := split.ChooseOrder(insSrc, dst, InsecureCluster); !ok {
		t.Fatal("route unexpectedly uncontainable")
	}
	if n := testing.AllocsPerRun(200, func() {
		_, _ = split.ChooseOrder(insSrc, dst, InsecureCluster)
		_ = m.LatencyBetween(insSrc, dst)
	}); n != 0 {
		t.Fatalf("analytic chooser allocates %.1f objects per run, want 0", n)
	}
}
