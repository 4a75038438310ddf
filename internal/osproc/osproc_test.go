package osproc

import (
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/sim"
)

type fixedSource struct{ n int }

func (f fixedSource) Generate(round, n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{Kind: byte(i % 2), Key: uint32(i), Size: 256}
	}
	return out
}

func setup(t *testing.T) (*sim.Machine, *OSProcess, *Channel, *sim.Group) {
	t.Helper()
	m, err := sim.NewMachine(arch.TileGx72())
	if err != nil {
		t.Fatal(err)
	}
	ch := &Channel{}
	p := New(ch, fixedSource{}, 16)
	p.Init(m, m.NewSpace("OS", arch.Insecure))
	g := m.NewGroup(arch.Insecure, []arch.CoreID{0, 1}, 0)
	return m, p, ch, g
}

func TestDeliversRequests(t *testing.T) {
	_, p, ch, g := setup(t)
	p.Round(g, 0)
	inbox := ch.TakeInbox()
	if len(inbox) != 16 {
		t.Fatalf("delivered %d requests, want 16", len(inbox))
	}
	if ch.TakeInbox() != nil {
		t.Fatal("inbox not drained")
	}
	if g.MaxCycles() == 0 {
		t.Fatal("network delivery charged nothing")
	}
}

func TestServicesAllSyscallKinds(t *testing.T) {
	_, p, ch, g := setup(t)
	ch.PushSyscall(Syscall{Kind: Fread, FD: 3, Size: 4096})
	ch.PushSyscall(Syscall{Kind: Writev, FD: 4, Size: 2048})
	ch.PushSyscall(Syscall{Kind: Fcntl, FD: 5})
	ch.PushSyscall(Syscall{Kind: Close, FD: 5})
	var evb sim.EventBuf
	g.SetEventBuf(&evb)
	p.Round(g, 0)
	// Every syscall reads its fd entry; the fread also reads its 4096
	// bytes of page cache. Request delivery only writes.
	reads := 0
	for _, c := range evb.Codes {
		if c == sim.EvRead {
			reads++
		}
	}
	if want := 4 + 4096/64; reads != want {
		t.Fatalf("%d reads, want %d: a syscall went unserved", reads, want)
	}
	if len(ch.Syscalls) != 0 {
		t.Fatal("syscall queue not drained")
	}
}

func TestFreadCostsScaleWithSize(t *testing.T) {
	costOf := func(size int) int64 {
		m, err := sim.NewMachine(arch.TileGx72())
		if err != nil {
			t.Fatal(err)
		}
		ch := &Channel{}
		p := New(ch, fixedSource{}, 0)
		p.Init(m, m.NewSpace("OS", arch.Insecure))
		g := m.NewGroup(arch.Insecure, []arch.CoreID{0}, 0)
		ch.PushSyscall(Syscall{Kind: Fread, FD: 1, Size: size})
		p.Round(g, 0)
		return g.MaxCycles()
	}
	if costOf(64<<10) <= costOf(1<<10) {
		t.Fatal("large fread not more expensive than small")
	}
}

func TestSyscallKindNames(t *testing.T) {
	names := map[SyscallKind]string{Fread: "fread", Fcntl: "fcntl", Close: "close", Writev: "writev"}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%v.String() = %q", k, k.String())
		}
	}
}

func TestMetadata(t *testing.T) {
	p := New(&Channel{}, fixedSource{}, 1)
	if p.Name() != "OS" || p.Domain() != arch.Insecure || p.Threads() <= 0 {
		t.Fatal("metadata wrong")
	}
}
