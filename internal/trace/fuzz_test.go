package trace

import (
	"bytes"
	"reflect"
	"testing"

	"ironhide/internal/arch"
)

// FuzzTraceRoundTrip drives the codec with arbitrary op sequences derived
// from the fuzz input: encoding through the recorder's emitters, decoding
// through the replayer's decoder, and re-encoding must reproduce both the
// op sequence and the exact bytes.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{7, 255, 0, 128, 9, 9, 9, 200, 13, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Interpret the input as a script of (selector, operand) pairs.
		r := &Recorder{}
		var p Proc
		r.begin(&p, 0)
		var wantOps []byte
		var wantArgs []int64
		var pendingCompute int64
		addr := int64(1 << 20)
		flushCompute := func() {
			if pendingCompute > 0 {
				wantOps = append(wantOps, opCompute)
				wantArgs = append(wantArgs, pendingCompute)
				pendingCompute = 0
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			sel, operand := data[i]%9, int64(data[i+1])
			switch sel {
			case 0:
				r.RecordCompute(operand)
				pendingCompute += operand
			case 1:
				addr += operand - 128 // exercise negative deltas
				r.RecordRead(addrOf(addr))
				flushCompute()
				wantOps = append(wantOps, opRead)
				wantArgs = append(wantArgs, addr)
			case 2:
				addr += operand * 64
				r.RecordWrite(addrOf(addr))
				flushCompute()
				wantOps = append(wantOps, opWrite)
				wantArgs = append(wantArgs, addr)
			case 3:
				addr -= operand
				r.RecordAtomic(addrOf(addr))
				flushCompute()
				wantOps = append(wantOps, opAtomic)
				wantArgs = append(wantArgs, addr)
			case 4:
				r.RecordBarrier()
				flushCompute()
				wantOps = append(wantOps, opBarrier)
				wantArgs = append(wantArgs, 0)
			case 5:
				r.RecordParFor()
				flushCompute()
				wantOps = append(wantOps, opParFor)
				wantArgs = append(wantArgs, 0)
			case 6:
				r.RecordChunk()
				flushCompute()
				wantOps = append(wantOps, opChunk)
				wantArgs = append(wantArgs, 0)
			case 7:
				r.RecordSeq()
				flushCompute()
				wantOps = append(wantOps, opSeq)
				wantArgs = append(wantArgs, 0)
			case 8:
				// Large compute values exercise multi-byte uvarints.
				big := operand << 32
				r.RecordCompute(big)
				pendingCompute += big
			}
		}
		r.end(0)
		flushCompute()
		encoded := p.Rounds[0]

		if err := ValidateStream(encoded); err != nil {
			t.Fatalf("recorder emitted an invalid stream: %v", err)
		}
		d, err := decodeStream(encoded)
		if err != nil {
			t.Fatalf("decode(encode(x)): %v", err)
		}
		if !bytes.Equal(d.ops, wantOps) {
			t.Fatalf("decoded ops %v, want %v", d.ops, wantOps)
		}
		if len(d.args) != len(wantArgs) {
			t.Fatalf("decoded %d args, want %d", len(d.args), len(wantArgs))
		}
		for j := range wantArgs {
			if d.args[j] != wantArgs[j] {
				t.Fatalf("arg %d (op %d) = %d, want %d", j, d.ops[j], d.args[j], wantArgs[j])
			}
		}

		// Canonical re-encoding: emitting the decoded ops through a fresh
		// recorder must reproduce the identical byte stream.
		r2 := &Recorder{}
		var p2 Proc
		r2.begin(&p2, 0)
		for j, code := range d.ops {
			switch code {
			case opCompute:
				r2.RecordCompute(d.args[j])
			case opRead:
				r2.RecordRead(addrOf(d.args[j]))
			case opWrite:
				r2.RecordWrite(addrOf(d.args[j]))
			case opAtomic:
				r2.RecordAtomic(addrOf(d.args[j]))
			case opBarrier:
				r2.RecordBarrier()
			case opParFor:
				r2.RecordParFor()
			case opChunk:
				r2.RecordChunk()
			case opSeq:
				r2.RecordSeq()
			}
		}
		r2.end(0)
		if !bytes.Equal(p2.Rounds[0], encoded) {
			t.Fatalf("re-encode diverged:\n% x\nvs\n% x", p2.Rounds[0], encoded)
		}
	})
}

// FuzzDecodeArbitrary feeds arbitrary bytes to the decoder: it may reject
// them, but it must never panic and must accept exactly what Validate
// accepts.
func FuzzDecodeArbitrary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{opCompute})                                                                           // truncated operand
	f.Add([]byte{opRead, 0x80})                                                                        // unterminated varint
	f.Add([]byte{42})                                                                                  // unknown opcode
	f.Add([]byte{opBarrier, opParFor, opChunk})                                                        // bare markers
	f.Add(append([]byte{opCompute}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)) // overlong uvarint
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := decodeStream(b)
		if (err == nil) != (ValidateStream(b) == nil) {
			t.Fatal("decodeStream and ValidateStream disagree")
		}
		if err != nil {
			return
		}
		if len(d.ops) != len(d.args) {
			t.Fatalf("decoded %d ops but %d args", len(d.ops), len(d.args))
		}
		// Accepted streams must lower and plan without panicking.
		p := &Proc{Rounds: [][]byte{b}}
		_ = p.Lower(3)
	})
}

// lowerRound splits a decoded round into chargeable ops and the marker
// skeleton: the reference FuzzLowerRound holds lowerStream to.
func lowerRound(d *decodedRound) loweredRound {
	n := 0
	for _, code := range d.ops {
		if code <= opAtomic {
			n++
		}
	}
	lr := loweredRound{
		codes: make([]byte, 0, n),
		args:  make([]int64, 0, n),
		segs:  make([]segment, 0, len(d.ops)-n),
	}
	for j, code := range d.ops {
		if code <= opAtomic {
			lr.codes = append(lr.codes, code)
			lr.args = append(lr.args, d.args[j])
			continue
		}
		lr.segs = append(lr.segs, segment{code: code, pos: int32(len(lr.codes))})
	}
	return lr
}

// FuzzLowerRound holds the direct lowering to the decode-then-lower
// reference: for every stream decodeStream accepts, lowerStream produces
// the identical op arrays and marker skeleton; it rejects exactly the
// streams decodeStream rejects, and never panics.
func FuzzLowerRound(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{opCompute})                                                                           // truncated operand
	f.Add([]byte{opRead, 0x80})                                                                        // unterminated varint
	f.Add([]byte{42})                                                                                  // unknown opcode
	f.Add([]byte{opBarrier, opParFor, opChunk, opSeq})                                                 // bare markers
	f.Add([]byte{opParFor, opChunk, opRead, 0x10, opCompute, 5, opChunk, opWrite, 0x7f, opBarrier})    // two chunks
	f.Add(append([]byte{opCompute}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)) // overlong uvarint
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := lowerStream(b)
		d, derr := decodeStream(b)
		if (err == nil) != (derr == nil) {
			t.Fatalf("lowerStream error %v, decodeStream error %v", err, derr)
		}
		if err != nil {
			if err.Error() != derr.Error() {
				t.Fatalf("lowerStream error %q, decodeStream error %q", err, derr)
			}
			return
		}
		if want := lowerRound(&d); !reflect.DeepEqual(got, want) {
			t.Fatalf("direct lowering %+v, want %+v", got, want)
		}
	})
}

func addrOf(v int64) arch.Addr { return arch.Addr(v) }

// FuzzTraceUnmarshal feeds arbitrary bytes to the whole-trace codec: it
// may reject them, but it must never panic, and anything it accepts must
// be canonical — re-marshaling reproduces the accepted bytes exactly.
func FuzzTraceUnmarshal(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(codecMagic))
	f.Add(append([]byte(codecMagic), 1))
	f.Add(Marshal(&Trace{App: "seed", Scale: 1, Ins: Proc{Name: "I"}, Sec: Proc{Name: "S"}}))
	f.Add(Marshal(&Trace{
		App: "seed2", Scale: 0.5, Rounds: 2, Warmup: 1,
		Ins: Proc{Name: "I", Threads: 4, Allocs: []Alloc{{Name: "a", Size: 64}},
			Rounds: [][]byte{{opBarrier, opSeq}, {opParFor, opChunk}}},
		Sec: Proc{Name: "S", Threads: 2, Rounds: [][]byte{nil, nil}},
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		tr, err := Unmarshal(b)
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted trace has invalid stream: %v", err)
		}
		if !bytes.Equal(Marshal(tr), b) {
			t.Fatal("accepted input is not canonical")
		}
	})
}

// TestValidateTraceCatchesCorruption pins the Validate entry points on a
// real capture: a recorded trace validates cleanly, and a mangled round
// is reported with its process and round.
func TestValidateTraceCatchesCorruption(t *testing.T) {
	tr := capture(t, 4, 2)
	if err := tr.Validate(); err != nil {
		t.Fatalf("freshly captured trace invalid: %v", err)
	}
	if len(tr.Ins.Rounds) == 0 || len(tr.Ins.Rounds[0]) == 0 {
		t.Fatal("capture recorded no rounds")
	}
	tr.Ins.Rounds[0] = append([]byte{250}, tr.Ins.Rounds[0]...)
	err := tr.Validate()
	if err == nil {
		t.Fatal("mangled trace validated")
	}
	if got := err.Error(); !bytes.Contains([]byte(got), []byte("round 0")) {
		t.Fatalf("error %q does not locate the corrupt round", got)
	}
}
