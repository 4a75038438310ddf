// Package ipc implements the shared inter-process communication buffer
// through which secure and insecure processes interact (paper Section
// III-A3, following MI6 and HotCalls).
//
// Strong isolation constrains where the buffer may live: it is allocated
// in the DRAM region(s) — and homed on the L2 slices — of the *insecure*
// domain. The secure process is allowed to reach into it (the shared data
// is insecure by definition, and no secure data leaves the secure
// regions), which the speculative-access check's asymmetry permits; the
// insecure process could never reach a secure-side buffer.
package ipc

import (
	"fmt"

	"ironhide/internal/arch"
	"ironhide/internal/sim"
)

// Ring is the shared IPC ring buffer. Send and Recv generate real memory
// traffic against the buffer's lines, so the cost of an interaction (and
// the cross-cluster packets it induces under IRONHIDE) emerges from the
// machine model.
type Ring struct {
	buf      sim.Buffer
	lineSize int
	capacity int
	head     int // producer byte cursor
	tail     int // consumer byte cursor
}

// NewRing allocates a ring of the given capacity from the insecure
// process's address space. Allocating it anywhere else violates strong
// isolation and is refused.
func NewRing(space *sim.AddressSpace, lineSize, capacity int) (*Ring, error) {
	if space.Domain() != arch.Insecure {
		return nil, fmt.Errorf("ipc: the shared buffer must live in the insecure domain, got %v", space.Domain())
	}
	if capacity <= 0 || capacity%lineSize != 0 {
		return nil, fmt.Errorf("ipc: capacity %d must be a positive multiple of the %dB line", capacity, lineSize)
	}
	return &Ring{
		buf:      space.Alloc("ipc-ring", capacity),
		lineSize: lineSize,
		capacity: capacity,
	}, nil
}

// Capacity returns the ring size in bytes.
func (r *Ring) Capacity() int { return r.capacity }

// Send writes an n-byte message into the ring from the calling thread:
// one store per cache line of payload, plus the head-pointer publish.
func (r *Ring) Send(c *sim.Ctx, n int) error {
	if n <= 0 || n > r.capacity {
		return fmt.Errorf("ipc: message of %d bytes does not fit a %dB ring", n, r.capacity)
	}
	for off := 0; off < n; off += r.lineSize {
		c.Write(r.buf.Addr((r.head + off) % r.capacity))
	}
	r.head = (r.head + n) % r.capacity
	// Publish the head pointer (a control line at the buffer start).
	c.Write(r.buf.Addr(0))
	return nil
}

// Recv reads an n-byte message out of the ring on the calling thread: the
// control-line poll plus one load per cache line of payload.
func (r *Ring) Recv(c *sim.Ctx, n int) error {
	if n <= 0 || n > r.capacity {
		return fmt.Errorf("ipc: message of %d bytes does not fit a %dB ring", n, r.capacity)
	}
	c.Read(r.buf.Addr(0))
	for off := 0; off < n; off += r.lineSize {
		c.Read(r.buf.Addr((r.tail + off) % r.capacity))
	}
	r.tail = (r.tail + n) % r.capacity
	return nil
}

// Buffer exposes the underlying allocation (tests verify its placement).
func (r *Ring) Buffer() sim.Buffer { return r.buf }
