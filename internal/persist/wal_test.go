package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"shieldstore/internal/core"
	"shieldstore/internal/mem"
	"shieldstore/internal/sgx"
	"shieldstore/internal/sim"
)

// walEnclave builds an enclave with file-backed counters so "restarts"
// (new store, same dir) keep platform state.
func walEnclave(dir string) *sgx.Enclave {
	space := mem.NewSpace(mem.Config{EPCBytes: 16 << 20})
	return sgx.New(sgx.Config{Space: space, Seed: 51, CounterPath: filepath.Join(dir, "nvram.bin")})
}

func newWAL(t testing.TB, dir string, batch int) (*WAL, *sim.Meter) {
	t.Helper()
	e := walEnclave(dir)
	s := core.New(e, nil, core.Defaults(64))
	w, err := NewWAL(s, dir, batch)
	if err != nil {
		t.Fatal(err)
	}
	return w, sim.NewMeter(e.Model())
}

func TestWALCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	w, m := newWAL(t, dir, 8)
	for i := 0; i < 50; i++ {
		if err := w.Set(m, []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Delete(m, []byte("k10")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(m, []byte("k11"), []byte("+tail")); err != nil {
		t.Fatal(err)
	}
	w.Close() // crash: no snapshot, no Pin

	// Recovery: fresh empty store (the "last snapshot" is empty here),
	// same cipher via same-seed enclave? The WAL is physically logged and
	// self-contained, so an empty store suffices.
	e2 := walEnclave(dir)
	s2 := core.New(e2, nil, core.Defaults(64))
	m2 := sim.NewMeter(e2.Model())
	w2, err := ReplayWAL(s2, dir, 8, m2)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()

	if _, err := w2.Main().Get(m2, []byte("k10")); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("replayed delete lost: %v", err)
	}
	v, err := w2.Main().Get(m2, []byte("k11"))
	if err != nil || string(v) != "v11+tail" {
		t.Fatalf("replayed append: %q %v", v, err)
	}
	v, err = w2.Main().Get(m2, []byte("k49"))
	if err != nil || string(v) != "v49" {
		t.Fatalf("replayed set: %q %v", v, err)
	}
	if s2.Keys() != 49 {
		t.Fatalf("keys = %d, want 49", s2.Keys())
	}
	if err := s2.VerifyAll(m2); err != nil {
		t.Fatal(err)
	}
	// The recovered WAL continues appending from the right sequence.
	if err := w2.Set(m2, []byte("new"), []byte("after")); err != nil {
		t.Fatal(err)
	}
}

func TestWALEmptyDirRecovers(t *testing.T) {
	dir := t.TempDir()
	e := walEnclave(dir)
	s := core.New(e, nil, core.Defaults(64))
	m := sim.NewMeter(e.Model())
	w, err := ReplayWAL(s, dir, 8, m)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if s.Keys() != 0 || w.Seq() != 0 {
		t.Fatal("empty replay should yield empty state")
	}
}

func TestWALTamperDetected(t *testing.T) {
	dir := t.TempDir()
	w, m := newWAL(t, dir, 8)
	for i := 0; i < 10; i++ {
		if err := w.Set(m, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	path := filepath.Join(dir, walFile)
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}

	e2 := walEnclave(dir)
	s2 := core.New(e2, nil, core.Defaults(64))
	if _, err := ReplayWAL(s2, dir, 8, sim.NewMeter(e2.Model())); !errors.Is(err, ErrLogCorrupt) {
		t.Fatalf("tampered log: %v", err)
	}
	// A failed replay is evidence, not a repair: the log stays as found.
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(after, data) {
		t.Fatalf("failed ReplayWAL changed %s (%d -> %d bytes, %v)", walFile, len(data), len(after), err)
	}
}

func TestWALTruncationDetected(t *testing.T) {
	// Dropping whole trailing records past a pinned batch is a rollback.
	dir := t.TempDir()
	w, m := newWAL(t, dir, 4)
	for i := 0; i < 20; i++ { // 5 full batches -> 5 counter pins
		if err := w.Set(m, []byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Keep only the first ~quarter of the log (cut at a frame boundary).
	path := filepath.Join(dir, walFile)
	data, _ := os.ReadFile(path)
	off, records := 0, 0
	for off < len(data) && records < 5 {
		n := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += 4 + n
		records++
	}
	if err := os.WriteFile(path, data[:off], 0o600); err != nil {
		t.Fatal(err)
	}

	e2 := walEnclave(dir)
	s2 := core.New(e2, nil, core.Defaults(64))
	if _, err := ReplayWAL(s2, dir, 4, sim.NewMeter(e2.Model())); !errors.Is(err, ErrRollback) {
		t.Fatalf("rolled-back log: %v", err)
	}
}

func TestWALPinShrinksWindow(t *testing.T) {
	dir := t.TempDir()
	w, m := newWAL(t, dir, 1000) // huge batch: nothing pinned implicitly
	for i := 0; i < 5; i++ {
		if err := w.Set(m, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Pin(m); err != nil { // clean shutdown
		t.Fatal(err)
	}
	w.Close()

	// Rolling back to an empty log is now detected even though no batch
	// boundary was ever crossed.
	if err := os.WriteFile(filepath.Join(dir, walFile), nil, 0o600); err != nil {
		t.Fatal(err)
	}
	e2 := walEnclave(dir)
	s2 := core.New(e2, nil, core.Defaults(64))
	if _, err := ReplayWAL(s2, dir, 1000, sim.NewMeter(e2.Model())); !errors.Is(err, ErrRollback) {
		t.Fatalf("post-Pin rollback: %v", err)
	}
}

func TestWALBatchingAmortizesCounter(t *testing.T) {
	dir := t.TempDir()
	w, m := newWAL(t, dir, 16)
	for i := 0; i < 64; i++ {
		if err := w.Set(m, []byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// 64 records at batch 16 -> exactly 4 increments, not 64.
	if got := m.Events(sim.CtrMonotonicInc); got != 4 {
		t.Fatalf("counter increments = %d, want 4", got)
	}
	w.Close()
}

func TestWALLogIsSealed(t *testing.T) {
	dir := t.TempDir()
	w, m := newWAL(t, dir, 8)
	secret := []byte("wal-plaintext-secret")
	key := []byte("wal-secret-keyname")
	if err := w.Set(m, key, secret); err != nil {
		t.Fatal(err)
	}
	w.Close()
	data, _ := os.ReadFile(filepath.Join(dir, walFile))
	if bytes.Contains(data, secret) || bytes.Contains(data, key) {
		t.Fatal("WAL leaks plaintext")
	}
}

func TestWALSnapshotPlusLog(t *testing.T) {
	// The intended deployment: snapshot + WAL tail. Restore the snapshot,
	// then replay only the post-snapshot log.
	dir := t.TempDir()
	e := walEnclave(dir)
	s := core.New(e, nil, core.Defaults(64))
	ps := New(s, dir, Naive)
	m := sim.NewMeter(e.Model())
	for i := 0; i < 30; i++ {
		if err := ps.Set(m, []byte(fmt.Sprintf("k%02d", i)), []byte("base")); err != nil {
			t.Fatal(err)
		}
	}
	if err := ps.Snapshot(m); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot tail goes to a fresh WAL.
	w, err := NewWAL(s, dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Set(m, []byte("k00"), []byte("tail-update")); err != nil {
		t.Fatal(err)
	}
	if err := w.Set(m, []byte("k99"), []byte("tail-insert")); err != nil {
		t.Fatal(err)
	}
	if err := w.Pin(m); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Crash + recover: snapshot, then WAL replay on top.
	e2 := walEnclave(dir)
	m2 := sim.NewMeter(e2.Model())
	restored, err := Restore(e2, dir, CounterIDFor(dir), m2)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := ReplayWAL(restored, dir, 8, m2)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	v, err := restored.Get(m2, []byte("k00"))
	if err != nil || string(v) != "tail-update" {
		t.Fatalf("tail update lost: %q %v", v, err)
	}
	v, err = restored.Get(m2, []byte("k99"))
	if err != nil || string(v) != "tail-insert" {
		t.Fatalf("tail insert lost: %q %v", v, err)
	}
	if err := restored.VerifyAll(m2); err != nil {
		t.Fatal(err)
	}
}
