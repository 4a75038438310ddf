// Package httpserver implements the paper's LIGHTTPD application: a
// lighttpd-like static web server as the secure process — serving a
// document tree of fixed-size pages through fread (page content from the
// OS page cache) and writev (response) syscalls — plus an http_load-like
// client source issuing uniformly random page fetches over many concurrent
// connections. The random request stream is what denies LIGHTTPD last-
// level-cache locality in the paper (it receives a single L2 slice).
package httpserver

import (
	"fmt"
	"math/rand"

	"ironhide/internal/arch"
	"ironhide/internal/osproc"
	"ironhide/internal/sim"
)

// Site is the static document tree: n pages of pageBytes each, with real
// (deterministic) contents.
type Site struct {
	PageBytes int
	pages     [][]byte
}

// NewSite builds the document tree.
func NewSite(pages, pageBytes int, seed int64) *Site {
	rng := rand.New(rand.NewSource(seed))
	s := &Site{PageBytes: pageBytes, pages: make([][]byte, pages)}
	for i := range s.pages {
		p := make([]byte, pageBytes)
		for j := range p {
			p[j] = byte(rng.Intn(256))
		}
		s.pages[i] = p
	}
	return s
}

// Pages returns the page count.
func (s *Site) Pages() int { return len(s.pages) }

// Page returns page i's content.
func (s *Site) Page(i int) []byte { return s.pages[i%len(s.pages)] }

// HTTPLoadSource is the http_load-like client: uniformly random page
// fetches (no popularity skew — the paper's "random request generation").
type HTTPLoadSource struct {
	rng  *rand.Rand
	site *Site
}

// NewHTTPLoadSource builds the client over the site.
func NewHTTPLoadSource(site *Site, seed int64) *HTTPLoadSource {
	return &HTTPLoadSource{rng: rand.New(rand.NewSource(seed)), site: site}
}

// Generate implements osproc.Source.
func (h *HTTPLoadSource) Generate(round, n int) []osproc.Request {
	out := make([]osproc.Request, n)
	for i := range out {
		out[i] = osproc.Request{
			Kind: 0,
			Key:  uint32(h.rng.Intn(h.site.Pages())),
			Size: 256, // HTTP GET request size
		}
	}
	return out
}

// Server is the secure LIGHTTPD process.
type Server struct {
	ch   *osproc.Channel
	site *Site

	connBuf sim.Buffer
	hdrBuf  sim.Buffer
	docBuf  sim.Buffer
}

// NewServer builds the LIGHTTPD server over channel ch serving site.
func NewServer(ch *osproc.Channel, site *Site) *Server {
	return &Server{ch: ch, site: site}
}

// Name implements workload.Process.
func (*Server) Name() string { return "LIGHTTPD" }

// Domain implements workload.Process.
func (*Server) Domain() arch.Domain { return arch.Secure }

// Threads implements workload.Process: lighttpd is a single-threaded
// event loop (one worker plus an acceptor in this model).
func (*Server) Threads() int { return 2 }

// Init implements workload.Process.
func (s *Server) Init(m *sim.Machine, space *sim.AddressSpace) {
	s.connBuf = space.Alloc("connections", 64<<10)
	s.hdrBuf = space.Alloc("header-stage", 16<<10)
	s.docBuf = space.Alloc("doc-window", 512<<10)
}

// Round implements workload.Process: for each request, parse, build the
// response header, fread the page body via the OS, and writev it back.
func (s *Server) Round(g *sim.Group, round int) {
	reqs := s.ch.TakeInbox()
	g.ParFor(len(reqs), 2, func(c *sim.Ctx, i int) {
		r := reqs[i]
		page := s.site.Page(int(r.Key))
		// Parse + connection state.
		c.Read(s.connBuf.Index(int(r.Key)%(s.connBuf.Size/64), 64))
		hdr := responseHeader(len(page))
		for off := 0; off < len(hdr); off += 64 {
			c.Write(s.hdrBuf.Index(off%(s.hdrBuf.Size), 1))
		}
		// Touch a window of the (random) page: no reuse across requests.
		for off := 0; off < 2048; off += 64 {
			c.Read(s.docBuf.Addr((int(r.Key)*4096 + off) % s.docBuf.Size))
		}
		c.Compute(int64(300 + len(hdr)))
		// Body comes from the OS page cache (fread), response via writev.
		s.ch.PushSyscall(osproc.Syscall{Kind: osproc.Fread, FD: int(r.Key) % 512, Size: len(page)})
		s.ch.PushSyscall(osproc.Syscall{Kind: osproc.Writev, FD: int(r.Key) % 512, Size: len(page) + len(hdr)})
		if i%32 == 0 {
			s.ch.PushSyscall(osproc.Syscall{Kind: osproc.Close, FD: int(r.Key) % 512})
		}
	})
}

// responseHeader builds the real HTTP response header for a page body of
// n bytes; its length sizes the header staging writes, the compute charge
// and the writev.
func responseHeader(n int) string {
	return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\nServer: lighttpd-sim\r\n\r\n", n)
}
