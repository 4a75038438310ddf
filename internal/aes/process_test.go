package aes

import (
	"bytes"
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/querygen"
	"ironhide/internal/sim"
)

// buildApp wires a QUERY generator to an AES process on a fresh machine.
func buildApp(t *testing.T, seed int64) (*sim.Machine, *querygen.Generator, *Process) {
	t.Helper()
	m, err := sim.NewMachine(arch.TileGx72())
	if err != nil {
		t.Fatal(err)
	}
	gen := querygen.NewGenerator(4096, 16, 128, seed)
	gen.Init(m, m.NewSpace("QUERY", arch.Insecure))
	var key [KeySize]byte
	for i := range key {
		key[i] = byte(i)
	}
	p, err := NewProcess(gen, key)
	if err != nil {
		t.Fatal(err)
	}
	p.Init(m, m.NewSpace("AES", arch.Secure))
	return m, gen, p
}

func TestProcessEncryptsBatch(t *testing.T) {
	m, gen, p := buildApp(t, 3)
	ins := m.NewGroup(arch.Insecure, []arch.CoreID{60, 61}, 0)
	sec := m.NewGroup(arch.Secure, []arch.CoreID{0, 1, 2, 3}, 0)
	gen.Round(ins, 0)
	var evb sim.EventBuf
	sec.SetEventBuf(&evb)
	p.Round(sec, 0)
	// Each cipher block stages one line (a read and a write) and reads
	// the S-box and a round key.
	const blocks = 16 * 128 / BlockSize
	reads, writes := countOps(&evb, sim.EvRead), countOps(&evb, sim.EvWrite)
	if reads != 3*blocks || writes != blocks {
		t.Fatalf("charged %d reads, %d writes; want %d, %d for %d blocks", reads, writes, 3*blocks, blocks, blocks)
	}
	if sec.MaxCycles() == 0 {
		t.Fatal("encryption charged nothing")
	}
}

// countOps counts the captured events with the given code.
func countOps(evb *sim.EventBuf, code byte) int {
	n := 0
	for _, c := range evb.Codes {
		if c == code {
			n++
		}
	}
	return n
}

// The process must really encrypt: its output decrypts back to the
// deterministic plaintexts a reference generator produces.
func TestProcessCiphertextDecryptsBack(t *testing.T) {
	m, gen, p := buildApp(t, 9)
	ins := m.NewGroup(arch.Insecure, []arch.CoreID{60}, 0)
	sec := m.NewGroup(arch.Secure, []arch.CoreID{0, 1}, 0)
	gen.Round(ins, 0)
	// The generator is deterministic: a twin run yields the plaintexts.
	mRef, genRef, _ := buildApp(t, 9)
	insRef := mRef.NewGroup(arch.Insecure, []arch.CoreID{60}, 0)
	genRef.Round(insRef, 0)
	plains := genRef.Drain()

	// Keep a handle on the live batch; Round encrypts Value in place.
	live := gen.Drain()
	gen.Inject(live)
	p.Round(sec, 0)

	if len(live) != len(plains) {
		t.Fatalf("batch sizes differ: %d vs %d", len(live), len(plains))
	}
	for i := range live {
		if bytes.Equal(live[i].Value, plains[i].Value) {
			t.Fatalf("query %d was not encrypted", i)
		}
		var iv [16]byte
		iv[0] = byte(live[i].Key)
		iv[1] = byte(live[i].Key >> 8)
		iv[15] = 0 // round number used by Round
		p.Cipher().CTR(live[i].Value, iv)
		if !bytes.Equal(live[i].Value, plains[i].Value) {
			t.Fatalf("query %d did not decrypt back to the plaintext", i)
		}
	}
}

func TestProcessMetadata(t *testing.T) {
	gen := querygen.NewGenerator(16, 1, 16, 1)
	p, err := NewProcess(gen, [KeySize]byte{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "AES" || p.Domain() != arch.Secure || p.Threads() <= 0 {
		t.Fatal("metadata wrong")
	}
}
