// Package osproc implements the untrusted OS process of the paper's
// OS-level interactive applications. MEMCACHED and LIGHTTPD "require
// frequent support from an untrusted OS process for generating and
// processing requests, such as fread, fcntl, close, and writev"; this
// package provides that process: it delivers incoming client requests
// (the memtier / http_load driver lives on the OS side of the boundary,
// where the network stack is) and services the syscalls the secure server
// issued during its previous round, touching the OS's own state — socket
// buffers, file-descriptor table, and page cache.
package osproc

import (
	"ironhide/internal/arch"
	"ironhide/internal/sim"
)

// SyscallKind is the OS service a server request names.
type SyscallKind byte

// The syscall mix named by the paper (HotCalls' hottest interfaces).
const (
	Fread SyscallKind = iota
	Fcntl
	Close
	Writev
)

// String names the syscall.
func (k SyscallKind) String() string {
	switch k {
	case Fread:
		return "fread"
	case Fcntl:
		return "fcntl"
	case Close:
		return "close"
	default:
		return "writev"
	}
}

// Syscall is one OS service request from the secure server.
type Syscall struct {
	Kind SyscallKind
	FD   int
	Size int // bytes moved for fread/writev
}

// Request is one incoming client request delivered to the server.
type Request struct {
	Kind byte   // application-defined opcode
	Key  uint32 // application-defined identifier
	Size int    // payload bytes
}

// Source generates the client load (memtier for MEMCACHED, http_load for
// LIGHTTPD). Implementations must be deterministic.
type Source interface {
	Generate(round, n int) []Request
}

// Channel is the shared coordination state between the OS process and the
// secure server: delivered requests flow one way, syscalls the other.
// (The timing of these transfers is modeled by the IPC ring; Channel
// carries the real data.)
type Channel struct {
	Inbox    []Request
	Syscalls []Syscall
}

// PushSyscall enqueues a syscall for the OS's next round.
func (ch *Channel) PushSyscall(s Syscall) { ch.Syscalls = append(ch.Syscalls, s) }

// TakeInbox drains the delivered requests.
func (ch *Channel) TakeInbox() []Request {
	out := ch.Inbox
	ch.Inbox = nil
	return out
}

// OSProcess is the insecure OS process.
type OSProcess struct {
	ch               *Channel
	src              Source
	requestsPerRound int

	netBuf   sim.Buffer
	fdBuf    sim.Buffer
	cacheBuf sim.Buffer
}

// New builds the OS process delivering requestsPerRound client requests
// from src each round over channel ch.
func New(ch *Channel, src Source, requestsPerRound int) *OSProcess {
	return &OSProcess{ch: ch, src: src, requestsPerRound: requestsPerRound}
}

// Name implements workload.Process.
func (*OSProcess) Name() string { return "OS" }

// Domain implements workload.Process.
func (*OSProcess) Domain() arch.Domain { return arch.Insecure }

// Threads implements workload.Process: kernel work is modestly parallel.
func (*OSProcess) Threads() int { return 8 }

// Init implements workload.Process.
func (p *OSProcess) Init(m *sim.Machine, space *sim.AddressSpace) {
	p.netBuf = space.Alloc("socket-buffers", 256<<10)
	p.fdBuf = space.Alloc("fd-table", 16<<10)
	p.cacheBuf = space.Alloc("page-cache", 4<<20)
}

// Round implements workload.Process: service the server's queued
// syscalls, then deliver the next client request batch.
func (p *OSProcess) Round(g *sim.Group, round int) {
	calls := p.ch.Syscalls
	p.ch.Syscalls = nil
	g.ParFor(len(calls), 2, func(c *sim.Ctx, i int) {
		s := calls[i]
		c.Read(p.fdBuf.Index(s.FD%(p.fdBuf.Size/8), 8))
		switch s.Kind {
		case Fread:
			for off := 0; off < s.Size; off += 64 {
				c.Read(p.cacheBuf.Addr((s.FD*4096 + off) % p.cacheBuf.Size))
			}
			c.Compute(int64(120 + s.Size/8))
		case Writev:
			for off := 0; off < s.Size; off += 64 {
				c.Write(p.netBuf.Addr((s.FD*1024 + off) % p.netBuf.Size))
			}
			c.Compute(int64(150 + s.Size/8))
		case Fcntl:
			c.Write(p.fdBuf.Index(s.FD%(p.fdBuf.Size/8), 8))
			c.Compute(90)
		case Close:
			c.Write(p.fdBuf.Index(s.FD%(p.fdBuf.Size/8), 8))
			c.Compute(110)
		}
	})

	reqs := p.src.Generate(round, p.requestsPerRound)
	g.ParFor(len(reqs), 4, func(c *sim.Ctx, i int) {
		// Network receive: the packet lands in a socket buffer.
		for off := 0; off < reqs[i].Size; off += 64 {
			c.Write(p.netBuf.Addr((int(reqs[i].Key)*512 + off) % p.netBuf.Size))
		}
		c.Compute(200) // interrupt + TCP processing per packet
	})
	p.ch.Inbox = append(p.ch.Inbox, reqs...)
}
