package httpserver

import (
	"bytes"
	"strings"
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/osproc"
	"ironhide/internal/sim"
)

func TestSiteDeterministicContent(t *testing.T) {
	a := NewSite(10, 1024, 3)
	b := NewSite(10, 1024, 3)
	if a.Pages() != 10 || len(a.Page(0)) != 1024 {
		t.Fatal("site shape wrong")
	}
	if !bytes.Equal(a.Page(3), b.Page(3)) {
		t.Fatal("same seed, different pages")
	}
	if bytes.Equal(a.Page(0), a.Page(1)) {
		t.Fatal("distinct pages identical")
	}
}

func TestHTTPLoadSourceUniform(t *testing.T) {
	site := NewSite(100, 512, 1)
	src := NewHTTPLoadSource(site, 9)
	reqs := src.Generate(0, 5000)
	counts := map[uint32]int{}
	for _, r := range reqs {
		if int(r.Key) >= site.Pages() {
			t.Fatalf("request for page %d beyond site", r.Key)
		}
		counts[r.Key]++
	}
	// Uniform: every page should be hit at least once, none dominating.
	if len(counts) < 95 {
		t.Fatalf("only %d distinct pages of 100 requested", len(counts))
	}
	for k, n := range counts {
		if n > 5000/10 {
			t.Fatalf("page %d hit %d times; uniform load should not skew", k, n)
		}
	}
}

func TestServerRound(t *testing.T) {
	m, err := sim.NewMachine(arch.TileGx72())
	if err != nil {
		t.Fatal(err)
	}
	site := NewSite(200, 20<<10, 4) // the paper's 20KB pages
	ch := &osproc.Channel{}
	src := NewHTTPLoadSource(site, 11)
	osp := osproc.New(ch, src, 24)
	srv := NewServer(ch, site)
	osp.Init(m, m.NewSpace("OS", arch.Insecure))
	srv.Init(m, m.NewSpace("LIGHTTPD", arch.Secure))

	ig := m.NewGroup(arch.Insecure, []arch.CoreID{56, 57}, 0)
	sg := m.NewGroup(arch.Secure, []arch.CoreID{0, 1}, 0)
	for r := 0; r < 4; r++ {
		osp.Round(ig, r)
		srv.Round(sg, r)
	}
	// The last round's 24 requests each queued an fread of the page and
	// a writev of header plus page for the OS's next round.
	wantWritev := 20480 + len(responseHeader(20480))
	var freads, writevs int
	for _, s := range ch.Syscalls {
		switch s.Kind {
		case osproc.Fread:
			freads++
			if s.Size != 20480 {
				t.Fatalf("fread of %d bytes, want the 20480-byte page", s.Size)
			}
		case osproc.Writev:
			writevs++
			if s.Size != wantWritev {
				t.Fatalf("writev of %d bytes, want %d", s.Size, wantWritev)
			}
		}
	}
	if freads != 24 || writevs != 24 {
		t.Fatalf("%d freads, %d writevs queued; want 24 each", freads, writevs)
	}
}

func TestResponseHeader(t *testing.T) {
	hdr := responseHeader(20480)
	if !strings.HasPrefix(hdr, "HTTP/1.1 200 OK\r\n") {
		t.Fatalf("header = %q", hdr)
	}
	if !strings.Contains(hdr, "\r\nContent-Length: 20480\r\n") || !strings.HasSuffix(hdr, "\r\n\r\n") {
		t.Fatalf("header = %q", hdr)
	}
}

func TestServerMetadata(t *testing.T) {
	srv := NewServer(&osproc.Channel{}, NewSite(1, 64, 1))
	if srv.Name() != "LIGHTTPD" || srv.Domain() != arch.Secure {
		t.Fatal("metadata wrong")
	}
	if srv.Threads() > 4 {
		t.Fatal("lighttpd is an event loop; thread count should be tiny")
	}
}
