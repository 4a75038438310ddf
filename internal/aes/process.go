package aes

import (
	"ironhide/internal/arch"
	"ironhide/internal/querygen"
	"ironhide/internal/sim"
)

// Process is the secure AES process of the query-encryption application:
// each interaction round it drains the query batch produced by the
// insecure QUERY generator and encrypts every query's payload under a
// 256-bit key with CTR mode. The arithmetic is the real cipher; the table
// and state traffic is charged against the machine model.
type Process struct {
	gen    *querygen.Generator
	cipher *Cipher
	key    [KeySize]byte

	sboxBuf sim.Buffer
	rkBuf   sim.Buffer
	dataBuf sim.Buffer
}

// NewProcess builds the AES process draining gen.
func NewProcess(gen *querygen.Generator, key [KeySize]byte) (*Process, error) {
	c, err := NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	return &Process{gen: gen, cipher: c, key: key}, nil
}

// Name implements workload.Process.
func (*Process) Name() string { return "AES" }

// Domain implements workload.Process.
func (*Process) Domain() arch.Domain { return arch.Secure }

// Threads implements workload.Process: queries encrypt independently.
func (*Process) Threads() int { return 32 }

// Init implements workload.Process.
func (p *Process) Init(m *sim.Machine, space *sim.AddressSpace) {
	p.sboxBuf = space.Alloc("sbox", 256)
	p.rkBuf = space.Alloc("round-keys", 4*4*(rounds+1))
	p.dataBuf = space.Alloc("staging", 64<<10)
}

// Round implements workload.Process.
func (p *Process) Round(g *sim.Group, round int) {
	batch := p.gen.Drain()
	g.ParFor(len(batch), 2, func(c *sim.Ctx, i int) {
		q := batch[i]
		var iv [16]byte
		iv[0] = byte(q.Key)
		iv[1] = byte(q.Key >> 8)
		iv[15] = byte(round)
		// Real encryption of the query payload.
		p.cipher.CTR(q.Value, iv)

		// Charge the model: staging lines for the payload, S-box and
		// round-key traffic per block.
		blocks := (len(q.Value) + BlockSize - 1) / BlockSize
		for b := 0; b < blocks; b++ {
			off := (int(q.Key)*97 + b*BlockSize) % (p.dataBuf.Size - BlockSize)
			c.Read(p.dataBuf.Addr(off))
			c.Write(p.dataBuf.Addr(off))
			c.Read(p.sboxBuf.Addr((b * 61) % 256))
			c.Read(p.rkBuf.Index(b%(rounds+1), 16))
			c.Compute(14 * 140) // 14 rounds of byte+table work per block
		}
	})
}

// Cipher exposes the underlying cipher (tests re-derive plaintexts).
func (p *Process) Cipher() *Cipher { return p.cipher }
