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
