package kvstore

import (
	"testing"
	"testing/quick"

	"ironhide/internal/arch"
	"ironhide/internal/osproc"
	"ironhide/internal/sim"
)

// Set, Get and overwrite-in-place. Entries leave the store only by LRU
// eviction; it has no Delete.
func TestStoreSetGetDelete(t *testing.T) {
	s := NewStore(1 << 20)
	if _, ok := s.Get(1); ok {
		t.Fatal("empty store returned a value")
	}
	s.Set(1, []byte("hello"))
	v, ok := s.Get(1)
	if !ok || string(v) != "hello" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	s.Set(1, []byte("world!"))
	if v, _ := s.Get(1); string(v) != "world!" {
		t.Fatal("overwrite lost")
	}
	if s.Len() != 1 || s.Used() != len("world!") {
		t.Fatalf("overwrite must replace in place: len=%d used=%d", s.Len(), s.Used())
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s := NewStore(300)
	s.Set(1, make([]byte, 100))
	s.Set(2, make([]byte, 100))
	s.Set(3, make([]byte, 100))
	s.Get(1) // refresh 1; 2 becomes LRU
	s.Set(4, make([]byte, 100))
	if _, ok := s.Get(2); ok {
		t.Fatal("LRU key 2 survived")
	}
	if _, ok := s.Get(1); !ok {
		t.Fatal("recently used key 1 evicted")
	}
	if s.Len() != 3 || s.Used() != 300 {
		t.Fatalf("after one eviction len=%d used=%d, want 3 and 300", s.Len(), s.Used())
	}
}

// Property: the capacity bound always holds.
func TestStoreCapacityInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewStore(1000)
		for _, op := range ops {
			key := uint32(op % 64)
			size := int(op%300) + 1
			s.Set(key, make([]byte, size))
		}
		return s.Used() <= 1000 || s.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemtierSourceMixAndSkew(t *testing.T) {
	src := NewMemtierSource(16384, 256, 0.1, 5)
	counts := map[uint32]int{}
	var sets int
	const total = 4000
	reqs := src.Generate(0, total)
	for _, r := range reqs {
		counts[r.Key]++
		if r.Kind == OpSet {
			sets++
		}
	}
	if sets < total/40 || sets > total/4 {
		t.Fatalf("sets = %d of %d; want ~10%%", sets, total)
	}
	var hot int
	for _, n := range counts {
		if n > hot {
			hot = n
		}
	}
	if hot < total/100 {
		t.Fatalf("hottest key only %d hits; Zipf skew missing", hot)
	}
}

func TestServerRoundServesAndCallsOS(t *testing.T) {
	m, err := sim.NewMachine(arch.TileGx72())
	if err != nil {
		t.Fatal(err)
	}
	ch := &osproc.Channel{}
	src := NewMemtierSource(4096, 128, 0.2, 7)
	osp := osproc.New(ch, src, 32)
	srv := NewServer(ch, 1<<20)
	osp.Init(m, m.NewSpace("OS", arch.Insecure))
	srv.Init(m, m.NewSpace("MEMCACHED", arch.Secure))

	ig := m.NewGroup(arch.Insecure, []arch.CoreID{56, 57}, 0)
	sg := m.NewGroup(arch.Secure, []arch.CoreID{0, 1, 2, 3}, 0)
	var osOps, srvOps sim.EventBuf
	ig.SetEventBuf(&osOps)
	sg.SetEventBuf(&srvOps)
	for r := 0; r < 5; r++ {
		osp.Round(ig, r)
		srv.Round(sg, r)
	}
	// Every request of the final round queued one writev response.
	writevs := 0
	for _, s := range ch.Syscalls {
		if s.Kind == osproc.Writev {
			writevs++
		}
	}
	if writevs != 32 {
		t.Fatalf("%d writev responses pending after the final round, want 32", writevs)
	}
	// The OS served the earlier rounds' syscalls: each reads its fd entry,
	// while request delivery only writes.
	if reads(&osOps) == 0 {
		t.Fatal("OS serviced no syscalls")
	}
	// SETs stored real data, and GETs hit it: beyond one index probe per
	// request, the server read slab lines.
	st := srv.Store()
	if st.Len() == 0 {
		t.Fatal("no SET reached the store")
	}
	for key, el := range st.items {
		v := el.Value.(*item).value
		for j := range v {
			if v[j] != byte(key)+byte(j) {
				t.Fatalf("key %d byte %d = %d, want %d", key, j, v[j], byte(key)+byte(j))
			}
		}
	}
	if reads(&srvOps) <= 5*32 {
		t.Fatal("no GET hit a stored value")
	}
}

// reads counts the memory reads captured in evb.
func reads(evb *sim.EventBuf) int {
	n := 0
	for _, c := range evb.Codes {
		if c == sim.EvRead {
			n++
		}
	}
	return n
}

func TestServerMetadata(t *testing.T) {
	srv := NewServer(&osproc.Channel{}, 1024)
	if srv.Name() != "MEMCACHED" || srv.Domain() != arch.Secure || srv.Threads() <= 0 {
		t.Fatal("metadata wrong")
	}
}
