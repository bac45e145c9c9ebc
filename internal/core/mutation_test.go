package core

import (
	"bytes"
	"errors"
	"testing"
)

// mutationSeeds is one well-formed record of each mutation kind.
func mutationSeeds() []BatchOp {
	return []BatchOp{
		{Kind: BatchSet, Key: []byte("alpha"), Value: []byte("one")},
		{Kind: BatchDelete, Key: []byte("alpha")},
		{Kind: BatchAppend, Key: []byte("alpha"), Value: []byte("-more")},
		{Kind: BatchIncr, Key: []byte("counter"), Delta: -41},
	}
}

func TestMutationRoundTrip(t *testing.T) {
	for _, op := range mutationSeeds() {
		rec := AppendMutation([]byte("prefix"), op)[len("prefix"):]
		got, err := DecodeMutation(rec)
		if err != nil {
			t.Fatalf("kind %d: %v", op.Kind, err)
		}
		if got.Kind != op.Kind || !bytes.Equal(got.Key, op.Key) || !bytes.Equal(got.Value, op.Value) || got.Delta != op.Delta {
			t.Fatalf("kind %d: decoded %+v, want %+v", op.Kind, got, op)
		}
	}
	// Header plus key plus payload: 5 bytes of framing per record.
	if n := len(AppendMutation(nil, BatchOp{Kind: BatchSet, Key: []byte("k"), Value: []byte("vv")})); n != 5+1+2 {
		t.Fatalf("set record is %d bytes, want 8", n)
	}
}

func TestDecodeMutationRejects(t *testing.T) {
	set := AppendMutation(nil, BatchOp{Kind: BatchSet, Key: []byte("key"), Value: []byte("v")})
	withKind := func(k BatchKind, payload ...byte) []byte {
		return append(AppendMutation(nil, BatchOp{Kind: k, Key: []byte("key")})[:8], payload...)
	}
	cases := map[string][]byte{
		"empty":            nil,
		"short header":     set[:4],
		"key overruns":     set[:7],
		"huge key length":  {byte(BatchSet), 0xff, 0xff, 0xff, 0xff},
		"get":              withKind(BatchGet),
		"unknown kind":     withKind(BatchIncr + 1),
		"kind 255":         withKind(255),
		"incr 7 bytes":     withKind(BatchIncr, 1, 2, 3, 4, 5, 6, 7),
		"incr 9 bytes":     withKind(BatchIncr, 1, 2, 3, 4, 5, 6, 7, 8, 9),
		"incr no payload":  withKind(BatchIncr),
		"delete w/payload": withKind(BatchDelete, 'x'),
	}
	for name, rec := range cases {
		if op, err := DecodeMutation(rec); !errors.Is(err, ErrBadMutation) {
			t.Errorf("%s: decoded %+v, err %v; want ErrBadMutation", name, op, err)
		}
	}
}

// FuzzMutationRecord throws arbitrary plaintext at the decoder, the bytes
// a log or link would hand it once sealing is out of the way: it may
// reject, it must never panic, and every record it accepts must re-encode
// byte for byte.
func FuzzMutationRecord(f *testing.F) {
	for _, op := range mutationSeeds() {
		f.Add(AppendMutation(nil, op))
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		op, err := DecodeMutation(rec)
		if err != nil {
			return
		}
		if again := AppendMutation(nil, op); !bytes.Equal(again, rec) {
			t.Fatalf("accepted %x, re-encodes as %x", rec, again)
		}
	})
}

// mutationRuns is the run fuzzer's seed corpus: runs of 0, 1 and 5 mixed
// records.
func mutationRuns() [][]byte {
	seeds := mutationSeeds()
	five := append(seeds, BatchOp{Kind: BatchSet, Key: []byte("beta"), Value: []byte("two")})
	var runs [][]byte
	for _, ops := range [][]BatchOp{nil, seeds[:1], five} {
		var run []byte
		for _, op := range ops {
			run = AppendMutationRun(run, op)
		}
		runs = append(runs, run)
	}
	return runs
}

func TestMutationRunRoundTrip(t *testing.T) {
	ops := append(mutationSeeds(), BatchOp{Kind: BatchSet, Key: []byte("beta"), Value: []byte("two")})
	var run []byte
	for _, op := range ops {
		run = AppendMutationRun(run, op)
	}
	prior := []BatchOp{{Kind: BatchSet, Key: []byte("kept")}}
	got, err := DecodeMutationRun(prior, run)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1+len(ops) || string(got[0].Key) != "kept" {
		t.Fatalf("decoded %d ops over a 1-op prefix, want %d", len(got), 1+len(ops))
	}
	for i, op := range ops {
		g := got[1+i]
		if g.Kind != op.Kind || !bytes.Equal(g.Key, op.Key) || !bytes.Equal(g.Value, op.Value) || g.Delta != op.Delta {
			t.Fatalf("record %d: decoded %+v, want %+v (run order must hold)", i, g, op)
		}
	}
	if got, err := DecodeMutationRun(nil, nil); err != nil || len(got) != 0 {
		t.Fatalf("empty run = %v, %v; want no ops", got, err)
	}
	// The length prefix is the only framing a run adds.
	one := AppendMutationRun(nil, ops[0])
	if len(one) != 4+len(AppendMutation(nil, ops[0])) {
		t.Fatalf("one-record run is %d bytes", len(one))
	}
}

func TestDecodeMutationRunRejects(t *testing.T) {
	good := AppendMutationRun(nil, BatchOp{Kind: BatchSet, Key: []byte("key"), Value: []byte("v")})
	overrun := append([]byte(nil), good...)
	overrun[0]++ // claims one byte more than the run holds
	short := append([]byte(nil), good...)
	short[0]-- // the record loses its last byte to the next prefix
	badKind := append([]byte(nil), good...)
	badKind[4] = byte(BatchGet)
	cases := map[string][]byte{
		"prefix tail":      append(append([]byte(nil), good...), 1, 0, 0),
		"length overruns":  overrun,
		"huge length":      append(append([]byte(nil), good...), 0xff, 0xff, 0xff, 0xff, 1),
		"zero length":      append(append([]byte(nil), good...), 0, 0, 0, 0),
		"record too short": short,
		"bad inner record": append(append([]byte(nil), good...), badKind...),
	}
	prior := []BatchOp{{Kind: BatchDelete, Key: []byte("kept")}}
	for name, run := range cases {
		got, err := DecodeMutationRun(prior, run)
		if !errors.Is(err, ErrBadMutation) {
			t.Errorf("%s: decoded %+v, err %v; want ErrBadMutation", name, got, err)
		}
		if len(got) != len(prior) {
			t.Errorf("%s: failed run left %d ops, want the %d it was given", name, len(got), len(prior))
		}
	}
}

// FuzzMutationRun throws arbitrary plaintext at the run decoder, the
// bytes a replication frame unseals to: it may reject, it must never
// panic, and every run it accepts must re-encode byte for byte.
func FuzzMutationRun(f *testing.F) {
	for _, run := range mutationRuns() {
		f.Add(run)
	}
	f.Fuzz(func(t *testing.T, run []byte) {
		ops, err := DecodeMutationRun(nil, run)
		if err != nil {
			return
		}
		var again []byte
		for _, op := range ops {
			again = AppendMutationRun(again, op)
		}
		if !bytes.Equal(again, run) {
			t.Fatalf("accepted %x, re-encodes as %x", run, again)
		}
	})
}
