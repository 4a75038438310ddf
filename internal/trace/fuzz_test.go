package trace

import (
	"bytes"
	"reflect"
	"testing"

	"ironhide/internal/sim"
)

// FuzzTraceRoundTrip drives the codec with arbitrary op sequences derived
// from the fuzz input: encoding through the recorder's capture path (a
// filled sim.EventBuf batch-encoded by Recorder.encode), decoding through
// the replayer's decoder, and re-encoding must reproduce both the op
// sequence and the exact bytes.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{7, 255, 0, 128, 9, 9, 9, 200, 13, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Interpret the input as a script of (selector, operand) pairs.
		var events sim.EventBuf
		var wantOps []byte
		var wantArgs []int64
		var pendingCompute int64
		addr := int64(1 << 20)
		emit := func(code byte, arg int64) {
			events.Codes = append(events.Codes, code)
			events.Args = append(events.Args, arg)
			if code == opCompute {
				pendingCompute += arg
				return
			}
			if pendingCompute > 0 {
				wantOps = append(wantOps, opCompute)
				wantArgs = append(wantArgs, pendingCompute)
				pendingCompute = 0
			}
			wantOps = append(wantOps, code)
			wantArgs = append(wantArgs, arg)
		}
		for i := 0; i+1 < len(data); i += 2 {
			sel, operand := data[i]%9, int64(data[i+1])
			switch sel {
			case 0:
				emit(opCompute, operand)
			case 1:
				addr += operand - 128 // exercise negative deltas
				emit(opRead, addr)
			case 2:
				addr += operand * 64
				emit(opWrite, addr)
			case 3:
				addr -= operand
				emit(opAtomic, addr)
			case 4:
				emit(opBarrier, 0)
			case 5:
				emit(opParFor, 0)
			case 6:
				emit(opChunk, 0)
			case 7:
				emit(opSeq, 0)
			case 8:
				// Large compute values exercise multi-byte uvarints.
				emit(opCompute, operand<<32)
			}
		}
		if pendingCompute > 0 {
			wantOps = append(wantOps, opCompute)
			wantArgs = append(wantArgs, pendingCompute)
		}
		encoded := encodeEvents(events)

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

		// Canonical re-encoding: capturing the decoded ops through a fresh
		// recorder must reproduce the identical byte stream.
		again := encodeEvents(sim.EventBuf{Codes: d.ops, Args: d.args})
		if !bytes.Equal(again, encoded) {
			t.Fatalf("re-encode diverged:\n% x\nvs\n% x", again, encoded)
		}
	})
}

// encodeEvents runs one round's captured events through a fresh
// recorder's batch encoder and returns the round's stream.
func encodeEvents(events sim.EventBuf) []byte {
	r := &Recorder{buf: events}
	var p Proc
	r.encode(&p, 0)
	return p.Rounds[0]
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
