package secret

import (
	"bytes"
	"errors"
	"testing"
)

func TestBufferHoldsAndWipes(t *testing.T) {
	key := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	src := append([]byte(nil), key...)
	b := From(src)
	// The source copy was consumed.
	if !bytes.Equal(src, make([]byte, len(src))) {
		t.Fatalf("From left the source un-wiped: %v", src)
	}
	if !bytes.Equal(b.Bytes(), key) {
		t.Fatalf("Bytes = %v, want %v", b.Bytes(), key)
	}
	if b.Len() != len(key) || b.Wiped() {
		t.Fatalf("Len=%d Wiped=%v, want %d false", b.Len(), b.Wiped(), len(key))
	}
	data := b.Bytes()
	if err := b.Wipe(); err != nil {
		t.Fatalf("Wipe: %v", err)
	}
	if !b.Wiped() {
		t.Fatal("Wiped() false after Wipe")
	}
	// Wipe-on-free: the backing bytes are zero.
	if !bytes.Equal(data, make([]byte, len(key))) {
		t.Fatalf("key bytes survived the wipe: %v", data)
	}
	// Idempotent.
	if err := b.Wipe(); err != nil {
		t.Fatalf("second Wipe: %v", err)
	}
}

func TestUseAfterWipePanics(t *testing.T) {
	b := New(16)
	if err := b.Wipe(); err != nil {
		t.Fatalf("Wipe: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Bytes() on a wiped buffer did not panic")
		}
	}()
	_ = b.Bytes()
}

func TestCanaryCorruptionDetected(t *testing.T) {
	b := New(4)
	// Bytes() is three-index capped, so a slice overrun cannot even reach
	// the trailing canary; simulate a stray pointer write via the frame.
	b.raw[CanarySize+4] = 0xFF
	if err := b.Wipe(); !errors.Is(err, ErrCanary) {
		t.Fatalf("Wipe after overrun = %v, want ErrCanary", err)
	}
	// The wipe still happened despite the corruption report.
	if !b.Wiped() {
		t.Fatal("buffer not retired after canary failure")
	}

	// Leading canary, via the raw frame.
	b2 := New(4)
	b2.raw[0] ^= 0x80
	if err := b2.Wipe(); !errors.Is(err, ErrCanary) {
		t.Fatalf("Wipe after leading-canary corruption = %v, want ErrCanary", err)
	}
}

func TestEqualConstantTimeSemantics(t *testing.T) {
	b := From([]byte{9, 9, 9, 9})
	defer b.Wipe()
	if !b.Equal([]byte{9, 9, 9, 9}) {
		t.Fatal("Equal(same) = false")
	}
	if b.Equal([]byte{9, 9, 9, 8}) {
		t.Fatal("Equal(diff) = true")
	}
	if b.Equal([]byte{9, 9, 9}) {
		t.Fatal("Equal(short) = true")
	}
}

func TestLiveAccounting(t *testing.T) {
	startBuffers, startBytes := Live()
	a := New(16)
	b := New(32)
	buffers, bts := Live()
	if buffers != startBuffers+2 || bts != startBytes+48 {
		t.Fatalf("Live = (%d, %d), want (%d, %d)", buffers, bts, startBuffers+2, startBytes+48)
	}

	a.Wipe()
	b.Wipe()
	buffers, bts = Live()
	if buffers != startBuffers || bts != startBytes {
		t.Fatalf("Live after wipes = (%d, %d), want (%d, %d)", buffers, bts, startBuffers, startBytes)
	}
}

func TestWipeBytes(t *testing.T) {
	b := []byte{1, 2, 3}
	WipeBytes(b)
	if !bytes.Equal(b, []byte{0, 0, 0}) {
		t.Fatalf("WipeBytes left %v", b)
	}
}
