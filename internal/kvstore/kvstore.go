// Package kvstore implements the paper's MEMCACHED application: a
// memcached-like in-memory key-value store (hash buckets over slab-style
// value storage with LRU eviction) running as the secure server process,
// plus a memtier-like closed-loop client source generating the GET/SET mix
// over Zipf-popular keys that drives it.
package kvstore

import (
	"container/list"
	"math/rand"

	"ironhide/internal/arch"
	"ironhide/internal/osproc"
	"ironhide/internal/sim"
)

// Store is the memcached-like store: a bucketed hash index over byte
// values with a capacity bound enforced by LRU eviction.
type Store struct {
	capacity int // max total value bytes
	used     int
	items    map[uint32]*list.Element
	lru      *list.List // front = most recent

	hits, misses, evictions int64
}

type item struct {
	key   uint32
	value []byte
}

// NewStore builds a store bounded at capacity value bytes.
func NewStore(capacity int) *Store {
	return &Store{
		capacity: capacity,
		items:    make(map[uint32]*list.Element),
		lru:      list.New(),
	}
}

// Get returns the value and whether it was present, refreshing recency.
func (s *Store) Get(key uint32) ([]byte, bool) {
	el, ok := s.items[key]
	if !ok {
		s.misses++
		return nil, false
	}
	s.lru.MoveToFront(el)
	s.hits++
	return el.Value.(*item).value, true
}

// Set stores value under key, evicting LRU entries to fit.
func (s *Store) Set(key uint32, value []byte) {
	if el, ok := s.items[key]; ok {
		it := el.Value.(*item)
		s.used += len(value) - len(it.value)
		it.value = value
		s.lru.MoveToFront(el)
	} else {
		s.items[key] = s.lru.PushFront(&item{key: key, value: value})
		s.used += len(value)
	}
	for s.used > s.capacity && s.lru.Len() > 0 {
		back := s.lru.Back()
		it := back.Value.(*item)
		s.used -= len(it.value)
		delete(s.items, it.key)
		s.lru.Remove(back)
		s.evictions++
	}
}

// Len returns the number of resident items.
func (s *Store) Len() int { return s.lru.Len() }

// Used returns resident value bytes.
func (s *Store) Used() int { return s.used }

// Stats returns (hits, misses, evictions).
func (s *Store) Stats() (int64, int64, int64) { return s.hits, s.misses, s.evictions }

// Request opcodes produced by the memtier source.
const (
	OpGet byte = iota
	OpSet
)

// MemtierSource is the memtier-like client load: a GET-heavy mix over
// Zipf-popular keys (the workload-analysis mix of Atikoglu et al.).
type MemtierSource struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	valueLen int
	setRatio float64
}

// NewMemtierSource builds the source over keySpace keys.
func NewMemtierSource(keySpace, valueLen int, setRatio float64, seed int64) *MemtierSource {
	rng := rand.New(rand.NewSource(seed))
	return &MemtierSource{
		rng:      rng,
		zipf:     rand.NewZipf(rng, 1.07, 16, uint64(keySpace-1)),
		valueLen: valueLen,
		setRatio: setRatio,
	}
}

// Generate implements osproc.Source.
func (ms *MemtierSource) Generate(round, n int) []osproc.Request {
	out := make([]osproc.Request, n)
	for i := range out {
		kind := OpGet
		if ms.rng.Float64() < ms.setRatio {
			kind = OpSet
		}
		out[i] = osproc.Request{Kind: kind, Key: uint32(ms.zipf.Uint64()), Size: ms.valueLen}
	}
	return out
}

// Server is the secure MEMCACHED process.
type Server struct {
	ch    *osproc.Channel
	store *Store

	indexBuf sim.Buffer
	slabBuf  sim.Buffer

	gets, sets int64
}

// NewServer builds the MEMCACHED server over channel ch with the given
// store capacity in bytes.
func NewServer(ch *osproc.Channel, capacity int) *Server {
	return &Server{ch: ch, store: NewStore(capacity)}
}

// Name implements workload.Process.
func (*Server) Name() string { return "MEMCACHED" }

// Domain implements workload.Process.
func (*Server) Domain() arch.Domain { return arch.Secure }

// Threads implements workload.Process.
func (*Server) Threads() int { return 24 }

// Init implements workload.Process.
func (s *Server) Init(m *sim.Machine, space *sim.AddressSpace) {
	s.indexBuf = space.Alloc("hash-index", 1<<20)
	s.slabBuf = space.Alloc("slabs", 4<<20)
}

// Round implements workload.Process: serve the delivered batch, issuing
// the per-request OS interactions the paper measures (a writev response
// per request, plus occasional fcntl/close connection churn).
func (s *Server) Round(g *sim.Group, round int) {
	reqs := s.ch.TakeInbox()
	g.ParFor(len(reqs), 2, func(c *sim.Ctx, i int) {
		r := reqs[i]
		// Hash-index probe.
		c.Read(s.indexBuf.Index(int(r.Key)%(s.indexBuf.Size/16), 16))
		switch r.Kind {
		case OpSet:
			v := make([]byte, r.Size)
			for j := range v {
				v[j] = byte(r.Key) + byte(j)
			}
			s.store.Set(r.Key, v)
			for off := 0; off < r.Size; off += 64 {
				c.Write(s.slabBuf.Addr((int(r.Key)*128 + off) % s.slabBuf.Size))
			}
			s.sets++
			c.Compute(int64(220 + r.Size/8))
		default:
			v, ok := s.store.Get(r.Key)
			n := r.Size
			if ok {
				n = len(v)
				for off := 0; off < n; off += 64 {
					c.Read(s.slabBuf.Addr((int(r.Key)*128 + off) % s.slabBuf.Size))
				}
			}
			s.gets++
			c.Compute(int64(160 + n/8))
		}
		// Every response goes back through the OS (writev); connection
		// churn adds fcntl/close.
		s.pushSyscall(osproc.Syscall{Kind: osproc.Writev, FD: int(r.Key) % 1024, Size: r.Size})
		if i%16 == 0 {
			s.pushSyscall(osproc.Syscall{Kind: osproc.Fcntl, FD: int(r.Key) % 1024})
		}
		if i%64 == 0 {
			s.pushSyscall(osproc.Syscall{Kind: osproc.Close, FD: int(r.Key) % 1024})
		}
	})
}

// pushSyscall serializes queue appends (ParFor bodies may interleave).
func (s *Server) pushSyscall(sc osproc.Syscall) { s.ch.PushSyscall(sc) }

// Store exposes the underlying store for tests.
func (s *Server) Store() *Store { return s.store }

// Ops returns (gets, sets) served.
func (s *Server) Ops() (int64, int64) { return s.gets, s.sets }
