// Package secret provides memguard-style containers for enclave key
// material: canary-framed buffers that are explicitly wiped when the
// key they hold is released, a constant-time comparison primitive, and
// a live-footprint census that a node's CmdStats answer reports as its
// secret_* gauges.
//
// ShieldStore's security argument rests on key material (the sealing
// seed, CMAC/GCM data keys, DRBG state, replication chain keys) never
// leaving the enclave unprotected and never outliving its use. Ordinary
// Go slices satisfy neither property: they are not zeroed on free, and
// nothing marks them as sensitive. A Buffer makes both properties
// explicit and testable — the canaries on either side of the key bytes
// detect out-of-bounds writes into the guarded region, Wipe zeroes the
// key and fails loudly when a canary was clobbered, and the shieldvet
// keyflow/keylife checkers statically require derived keys to live in
// (or be wiped like) these buffers.
//
// The simulation cannot reproduce memguard's mlock/guard-page layers
// (pure Go, no mmap control over the runtime heap), and key schedules
// expanded inside crypto/aes remain unwipeable stdlib state; the canary
// + wipe-on-free + accounting discipline is the portable subset, and
// DESIGN.md §16 documents the residual gap.
//
//ss:trusted
package secret

import (
	"crypto/subtle"
	"errors"
	"sync/atomic"
)

// CanarySize is the guard frame placed on each side of the key bytes.
const CanarySize = 8

// ErrCanary reports that a buffer's guard frame was overwritten — an
// out-of-bounds write reached into (or past) guarded key material.
var ErrCanary = errors.New("secret: canary corrupted (out-of-bounds write into guarded key material)")

// Live-footprint accounting: every un-wiped Buffer counts toward the
// enclave's secret-memory gauges.
var (
	liveBuffers atomic.Int64
	liveBytes   atomic.Int64
)

// Buffer is one guarded key buffer: canary | key bytes | canary. The
// key bytes are reachable only through Bytes, and the buffer must be
// Wiped exactly when the key is released. Not safe for concurrent use;
// like the cipher state it protects, a Buffer belongs to one owner.
type Buffer struct {
	raw   []byte // canary | data | canary
	data  []byte // aliases raw[CanarySize : CanarySize+n]
	wiped bool
}

// canaryByte is the deterministic guard pattern. A fixed pattern (vs.
// memguard's random canary) keeps the simulation reproducible; the
// threat here is accidental overruns, not an adversary forging frames
// inside enclave memory it cannot read.
func canaryByte(i int) byte { return byte(0xA5 ^ i*0x3D) }

func fillCanary(b []byte) {
	for i := range b {
		b[i] = canaryByte(i)
	}
}

func canaryIntact(b []byte) bool {
	var diff byte
	for i := range b {
		diff |= b[i] ^ canaryByte(i)
	}
	return diff == 0
}

// New allocates a guarded buffer for n key bytes (zero-filled).
//
//ss:nopanic-ok(n is a caller-chosen key length, never attacker input; the slice arithmetic is over the fresh allocation it sizes)
func New(n int) *Buffer {
	if n < 0 {
		panic("secret: negative buffer size")
	}
	raw := make([]byte, CanarySize+n+CanarySize)
	fillCanary(raw[:CanarySize])
	fillCanary(raw[CanarySize+n:])
	b := &Buffer{raw: raw, data: raw[CanarySize : CanarySize+n : CanarySize+n]}
	liveBuffers.Add(1)
	liveBytes.Add(int64(n))
	return b
}

// From moves key material into a guarded buffer: the bytes are copied
// in and the source is wiped, so the caller's unguarded copy does not
// linger.
//
//ss:wipes — consumes the source bytes into a guarded buffer.
func From(src []byte) *Buffer {
	b := New(len(src))
	copy(b.data, src)
	WipeBytes(src)
	return b
}

// Bytes exposes the guarded key bytes. The slice aliases the buffer —
// callers must not retain it past the buffer's Wipe. Using a wiped
// buffer is a lifecycle bug and fails loudly.
//
//ss:secret — the returned slice is raw key material.
//ss:keylife-ok(borrowed view: the Buffer owns the wipe, callers of Bytes owe nothing)
//ss:nopanic-ok(use-after-wipe is an owner lifecycle bug, not reachable from attacker-controlled input)
func (b *Buffer) Bytes() []byte {
	if b.wiped {
		panic("secret: use of wiped buffer")
	}
	return b.data
}

// Len returns the guarded key length (valid even after Wipe).
func (b *Buffer) Len() int { return len(b.data) }

// Wiped reports whether the buffer has been released.
func (b *Buffer) Wiped() bool { return b.wiped }

// Equal compares the guarded bytes against x in constant time.
func (b *Buffer) Equal(x []byte) bool {
	return subtle.ConstantTimeCompare(b.Bytes(), x) == 1
}

// Wipe zeroes the key bytes and retires the buffer from the live
// accounting. It verifies the guard frames first and returns ErrCanary
// if either was overwritten — the zeroing still happens, so a corrupted
// buffer never survives its wipe. Idempotent: wiping twice is a no-op.
//
//ss:wipes — the wipe primitive itself.
func (b *Buffer) Wipe() error {
	if b.wiped {
		return nil
	}
	b.wiped = true
	var err error
	if !canaryIntact(b.raw[:CanarySize]) || !canaryIntact(b.raw[CanarySize+len(b.data):]) {
		err = ErrCanary
	}
	WipeBytes(b.raw)
	liveBuffers.Add(-1)
	liveBytes.Add(-int64(len(b.data)))
	return err
}

// WipeBytes zeroes b in place — the wipe primitive for key material
// held in plain slices or arrays (stack-local derived keys, decoded
// sealed-metadata fields) that never got a guarded Buffer.
//
//ss:wipes — the wipe primitive itself.
func WipeBytes(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// Live returns the current guarded-buffer census: how many un-wiped
// buffers exist and how many key bytes they hold.
func Live() (buffers, bytes int64) {
	return liveBuffers.Load(), liveBytes.Load()
}
