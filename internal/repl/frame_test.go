// Frame codec tests: round-trip through two enclaves sharing a sealing
// identity, exhaustive single-byte tamper detection, the every-byte-offset
// torn-stream sweep, and the decode fuzz target. The decoders face bytes
// from an adversary-controlled link, so the bar is: detect everything,
// panic on nothing.
package repl

import (
	"bytes"
	"testing"

	"shieldstore/internal/cmac"
	"shieldstore/internal/core"
	"shieldstore/internal/mem"
	"shieldstore/internal/sgx"
	"shieldstore/internal/sim"
)

func testEnclave(seed uint64) *sgx.Enclave {
	space := mem.NewSpace(mem.Config{EPCBytes: 16 << 20})
	return sgx.New(sgx.Config{Space: space, Seed: seed})
}

// streamRuns is a fixed little mutation stream, one run per frame.
func streamRuns() [][]core.BatchOp {
	return [][]core.BatchOp{
		{
			{Kind: core.BatchSet, Key: []byte("alpha"), Value: []byte("one")},
			{Kind: core.BatchAppend, Key: []byte("alpha"), Value: []byte("-more")},
		},
		{{Kind: core.BatchIncr, Key: []byte("counter"), Delta: 41}},
		{
			{Kind: core.BatchDelete, Key: []byte("alpha")},
			{Kind: core.BatchSet, Key: []byte("beta"), Value: []byte("two")},
			{Kind: core.BatchIncr, Key: []byte("counter"), Delta: 1},
		},
		{{Kind: core.BatchDelete, Key: []byte("beta")}},
	}
}

// appendRun encodes ops as one run.
func appendRun(dst []byte, ops ...core.BatchOp) []byte {
	for _, op := range ops {
		dst = core.AppendMutationRun(dst, op)
	}
	return dst
}

// encodeStream encodes streamRuns (seq 1..4) on a fresh chain and returns
// the concatenated wire bytes plus the frame boundaries.
func encodeStream(e *sgx.Enclave) (stream []byte, bounds []int) {
	m := sim.NewMeter(e.Model())
	chain := newChain(e)
	for i, run := range streamRuns() {
		f := encodeFrame(m, e, chain, uint64(i+1), 1, appendRun(nil, run...))
		stream = append(stream, f...)
		bounds = append(bounds, len(stream))
	}
	return stream, bounds
}

func TestFrameRoundTrip(t *testing.T) {
	sender := testEnclave(7)
	stream, _ := encodeStream(sender)

	// A *different* enclave instance with the same seed must verify and
	// unseal everything: the chain key and sealing key derive from the
	// shared identity, which is what lets a replica process check frames
	// its primary produced.
	receiver := testEnclave(7)
	m := sim.NewMeter(receiver.Model())
	chain := newChain(receiver)
	model := receiver.Model()

	runs := streamRuns()
	off, idx := 0, 0
	var f Frame
	for off < len(stream) {
		n, body, blob, tag, err := decodeFrame(&f, stream[off:])
		if err != nil {
			t.Fatalf("frame %d: decode: %v", idx, err)
		}
		if !chain.check(m, model, body, tag) {
			t.Fatalf("frame %d: chain verification failed", idx)
		}
		run, err := receiver.Unseal(m, blob)
		if err != nil {
			t.Fatalf("frame %d: unseal: %v", idx, err)
		}
		ops, err := core.DecodeMutationRun(nil, run)
		if err != nil {
			t.Fatalf("frame %d: run: %v", idx, err)
		}
		if f.Seq != uint64(idx+1) || f.Epoch != 1 {
			t.Fatalf("frame %d: seq=%d epoch=%d", idx, f.Seq, f.Epoch)
		}
		want := runs[idx]
		if len(ops) != len(want) {
			t.Fatalf("frame %d: %d records, want %d", idx, len(ops), len(want))
		}
		for j, op := range ops {
			w := want[j]
			if op.Kind != w.Kind || !bytes.Equal(op.Key, w.Key) || !bytes.Equal(op.Value, w.Value) || op.Delta != w.Delta {
				t.Fatalf("frame %d record %d: %+v, want %+v", idx, j, op, w)
			}
		}
		off += n
		idx++
	}
	if idx != 4 {
		t.Fatalf("decoded %d frames, want 4", idx)
	}

	// A stranger enclave (different seed) must fail the chain on frame 1.
	stranger := newChain(testEnclave(8))
	n, body, _, tag, err := decodeFrame(&f, stream)
	if err != nil || n <= 0 {
		t.Fatalf("re-decode: %v", err)
	}
	if stranger.check(m, model, body, tag) || stranger.checkGenesis(m, model, body, tag) {
		t.Fatal("foreign enclave verified the chain")
	}
}

// TestFrameTamperEveryByte flips every single byte of a four-frame stream
// in turn; no flipped stream may survive decode + chain verification +
// unseal on every frame.
func TestFrameTamperEveryByte(t *testing.T) {
	e := testEnclave(7)
	stream, _ := encodeStream(e)
	m := sim.NewMeter(e.Model())
	model := e.Model()

	verify := func(buf []byte) bool {
		chain := newChain(e)
		off, applied := 0, 0
		var f Frame
		for off < len(buf) {
			n, body, blob, tag, err := decodeFrame(&f, buf[off:])
			if err != nil {
				return false
			}
			if !chain.check(m, model, body, tag) {
				return false
			}
			run, err := e.Unseal(m, blob)
			if err != nil {
				return false
			}
			if _, err := core.DecodeMutationRun(nil, run); err != nil {
				return false
			}
			off += n
			applied++
		}
		return applied == 4
	}
	if !verify(stream) {
		t.Fatal("pristine stream failed verification")
	}
	for i := range stream {
		mut := append([]byte(nil), stream...)
		mut[i] ^= 0x40
		if verify(mut) {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
}

// TestTornStreamEveryOffset cuts the stream at every byte offset: the
// decoder must hand back exactly the whole frames the cut retains and
// flag the torn tail — never panic, never invent a frame.
func TestTornStreamEveryOffset(t *testing.T) {
	e := testEnclave(7)
	stream, bounds := encodeStream(e)
	for cut := 0; cut <= len(stream); cut++ {
		whole := 0
		for _, b := range bounds {
			if cut >= b {
				whole++
			}
		}
		off, got := 0, 0
		var f Frame
		var torn bool
		for off < cut {
			n, _, _, _, err := decodeFrame(&f, stream[off:cut])
			if err != nil {
				torn = true
				break
			}
			off += n
			got++
		}
		if got != whole {
			t.Fatalf("cut %d: decoded %d whole frames, want %d", cut, got, whole)
		}
		aligned := cut == 0 || (whole > 0 && cut == bounds[whole-1])
		if torn == aligned {
			t.Fatalf("cut %d: torn=%v with %d whole frames (aligned=%v)", cut, torn, whole, aligned)
		}
	}
}

// FuzzReplFrameDecode throws arbitrary bytes at the frame layer: the
// outer decoder and unseal may reject, they must never panic or read out
// of bounds, and accepted frames must be internally consistent. The
// sealed run inside is core's mutation run, fuzzed there
// (FuzzMutationRun, FuzzMutationRecord).
func FuzzReplFrameDecode(f *testing.F) {
	e := testEnclave(7)
	stream, bounds := encodeStream(e)
	f.Add(stream)
	f.Add(stream[:bounds[0]])
	f.Add(stream[:bounds[0]-1])
	f.Add(stream[1:])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, frameOverhead+8))
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		off := 0
		for off < len(data) {
			n, body, blob, tag, err := decodeFrame(&fr, data[off:])
			if err != nil {
				break
			}
			if n <= 0 || n > len(data)-off {
				t.Fatalf("decode length %d out of range (have %d)", n, len(data)-off)
			}
			if len(body) != frameHdr+len(blob) || len(tag) != cmac.Size {
				t.Fatalf("inconsistent spans: body=%d blob=%d tag=%d", len(body), len(blob), len(tag))
			}
			// The blob is attacker bytes too: unseal must reject cleanly.
			_, _ = e.Unseal(sim.NewMeter(e.Model()), blob)
			off += n
		}
	})
}
