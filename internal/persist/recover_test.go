package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"shieldstore/internal/core"
	"shieldstore/internal/fault"
	"shieldstore/internal/sim"
)

// sealedLog builds a multi-record log (sets + one delete) in dir and
// returns its bytes, the record boundary offsets (boundary[k] = end of
// record k-1; boundary[0] = 0), and the expected store contents after
// each prefix of k records.
func sealedLog(t *testing.T, dir string) (data []byte, boundaries []int, want []map[string]string) {
	t.Helper()
	w, m := newWAL(t, dir, 100) // no counter pins: every prefix is legal
	steps := []struct {
		op       core.BatchKind
		key, val string
	}{
		{core.BatchSet, "alpha", "1"},
		{core.BatchSet, "beta", "a-much-longer-value-padding-padding"},
		{core.BatchSet, "gamma", ""},
		{core.BatchDelete, "alpha", ""},
		{core.BatchSet, "alpha", "2"},
		{core.BatchSet, "delta", "dd"},
	}
	state := map[string]string{}
	want = append(want, map[string]string{})
	for _, st := range steps {
		if st.op == core.BatchDelete {
			if err := w.Delete(m, []byte(st.key)); err != nil {
				t.Fatal(err)
			}
			delete(state, st.key)
		} else {
			if err := w.Set(m, []byte(st.key), []byte(st.val)); err != nil {
				t.Fatal(err)
			}
			state[st.key] = st.val
		}
		snap := make(map[string]string, len(state))
		for k, v := range state {
			snap[k] = v
		}
		want = append(want, snap)
	}
	w.Close()

	data, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	boundaries = []int{0}
	for off := 0; off < len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4 + n
		boundaries = append(boundaries, off)
	}
	if boundaries[len(boundaries)-1] != len(data) {
		t.Fatalf("frame parse mismatch: %v vs %d bytes", boundaries, len(data))
	}
	if len(boundaries) != len(steps)+1 {
		t.Fatalf("got %d records, want %d", len(boundaries)-1, len(steps))
	}
	return data, boundaries, want
}

// recordsIn returns how many complete records fit in a prefix of length n.
func recordsIn(boundaries []int, n int) int {
	k := 0
	for k+1 < len(boundaries) && boundaries[k+1] <= n {
		k++
	}
	return k
}

func TestWALTornWriteSweep(t *testing.T) {
	src := t.TempDir()
	data, boundaries, want := sealedLog(t, src)

	for cut := 0; cut <= len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), data[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		e := walEnclave(dir)
		s := core.New(e, nil, core.Defaults(64))
		m := sim.NewMeter(e.Model())
		w, rep, err := RecoverWAL(s, dir, 100, m)
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		k := recordsIn(boundaries, cut)
		if rep.Applied != uint64(k) {
			t.Fatalf("cut=%d: applied %d records, want %d", cut, rep.Applied, k)
		}
		if wantDisc := cut - boundaries[k]; rep.DiscardedBytes != wantDisc {
			t.Fatalf("cut=%d: discarded %d bytes, want %d", cut, rep.DiscardedBytes, wantDisc)
		}
		if (rep.TailErr == nil) != (cut == boundaries[k]) {
			t.Fatalf("cut=%d: TailErr=%v at boundary=%v", cut, rep.TailErr, cut == boundaries[k])
		}
		// No phantom records, no lost prefix: contents must equal the
		// state after exactly k records.
		exp := want[k]
		if s.Keys() != len(exp) {
			t.Fatalf("cut=%d: %d keys, want %d", cut, s.Keys(), len(exp))
		}
		for kk, vv := range exp {
			got, err := s.Get(m, []byte(kk))
			if err != nil || !bytes.Equal(got, []byte(vv)) {
				t.Fatalf("cut=%d: key %q = %q/%v, want %q", cut, kk, got, err, vv)
			}
		}
		// The repair is durable: the file now ends at the last valid record.
		onDisk, err := os.ReadFile(filepath.Join(dir, walFile))
		if err != nil {
			t.Fatal(err)
		}
		if len(onDisk) != boundaries[k] {
			t.Fatalf("cut=%d: file is %d bytes after repair, want %d", cut, len(onDisk), boundaries[k])
		}
		// And the recovered WAL keeps working.
		if err := w.Set(m, []byte("post"), []byte("recovery")); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		w.Close()
	}
}

func TestRecoverWALRollbackDetected(t *testing.T) {
	dir := t.TempDir()
	w, m := newWAL(t, dir, 2) // a pin every 2 records
	for i := 0; i < 6; i++ {
		if err := w.Set(m, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	w.Close() // 3 pins: recovery needs >= (3-1)*2+1 = 5 records

	data, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	boundaries := []int{0}
	for off := 0; off < len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4 + n
		boundaries = append(boundaries, off)
	}
	// Roll the log back to 3 records — fewer than the counter pinned.
	if err := os.WriteFile(filepath.Join(dir, walFile), data[:boundaries[3]], 0o600); err != nil {
		t.Fatal(err)
	}
	e := walEnclave(dir)
	s := core.New(e, nil, core.Defaults(64))
	if _, _, err := RecoverWAL(s, dir, 2, sim.NewMeter(e.Model())); !errors.Is(err, ErrRollback) {
		t.Fatalf("rolled-back log: %v, want ErrRollback", err)
	}
	// A torn tail within the unpinned window recovers fine: 5 records
	// satisfy the pin bound.
	if err := os.WriteFile(filepath.Join(dir, walFile), data[:boundaries[5]+3], 0o600); err != nil {
		t.Fatal(err)
	}
	e2 := walEnclave(dir)
	s2 := core.New(e2, nil, core.Defaults(64))
	_, rep, err := RecoverWAL(s2, dir, 2, sim.NewMeter(e2.Model()))
	if err != nil {
		t.Fatalf("tear in unpinned window: %v", err)
	}
	if rep.Applied != 5 || rep.TailErr == nil {
		t.Fatalf("report = %+v, want 5 applied with torn tail", rep)
	}
}

func TestWALTearInjection(t *testing.T) {
	dir := t.TempDir()
	w, m := newWAL(t, dir, 100)
	for i := 0; i < 4; i++ {
		if err := w.Set(m, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	p := fault.New(21)
	w.SetFaultPlane(p)
	p.Arm(fault.PointWALTear, fault.Spec{})
	err := w.Set(m, []byte("torn"), []byte("never-acked"))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn append: %v, want ErrInjected", err)
	}
	if w.Seq() != 4 {
		t.Fatalf("seq advanced to %d on a torn append", w.Seq())
	}
	w.Close() // crash

	e := walEnclave(dir)
	s := core.New(e, nil, core.Defaults(64))
	m2 := sim.NewMeter(e.Model())
	w2, rep, err := RecoverWAL(s, dir, 100, m2)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rep.Applied != 4 {
		t.Fatalf("recovered %d records, want 4", rep.Applied)
	}
	if _, err := s.Get(m2, []byte("torn")); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("unacknowledged record resurrected: %v", err)
	}
	if _, err := s.Get(m2, []byte("k3")); err != nil {
		t.Fatalf("acknowledged record lost: %v", err)
	}
}

func TestSnapshotTearInjection(t *testing.T) {
	dir := t.TempDir()
	e := walEnclave(dir)
	s := core.New(e, nil, core.Defaults(64))
	m := sim.NewMeter(e.Model())
	ps := New(s, dir, Naive)
	for i := 0; i < 20; i++ {
		if err := ps.Set(m, []byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := ps.Snapshot(m); err != nil {
		t.Fatal(err)
	}
	p := fault.New(33)
	ps.SetFaultPlane(p)
	p.Arm(fault.PointSnapshotTear, fault.Spec{Skip: 0})
	if err := ps.Snapshot(m); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn snapshot: %v, want ErrInjected", err)
	}
	// The torn pair (fresh sealed meta + truncated data) must fail
	// restore with a typed error — never restore silently wrong state.
	e2 := walEnclave(dir)
	if _, err := Restore(e2, dir, CounterIDFor(dir), sim.NewMeter(e2.Model())); err == nil {
		t.Fatal("torn snapshot restored cleanly")
	}
}

func FuzzWALRecover(f *testing.F) {
	// Seed with a real log, a torn prefix of it, and junk.
	dir := f.TempDir()
	w, m := newWAL(f, dir, 100)
	for i := 0; i < 3; i++ {
		if err := w.Set(m, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	valid, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})

	f.Fuzz(func(t *testing.T, log []byte) {
		fdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(fdir, walFile), log, 0o600); err != nil {
			t.Skip()
		}
		e := walEnclave(fdir)
		s := core.New(e, nil, core.Defaults(16))
		fm := sim.NewMeter(e.Model())
		w, rep, err := RecoverWAL(s, fdir, 100, fm)
		if err != nil {
			// Typed failure only; arbitrary bytes can't roll back a zero
			// counter, so corruption is the only legal rejection here.
			if !errors.Is(err, ErrLogCorrupt) && !errors.Is(err, ErrRollback) {
				t.Fatalf("untyped recovery error: %v", err)
			}
			return
		}
		if err := s.VerifyAll(fm); err != nil {
			t.Fatalf("recovered store fails verification: %v", err)
		}
		w.Close()
		// The repair is durable: recovering the truncated file again finds
		// a clean log holding the same records.
		e2 := walEnclave(fdir)
		w2, rep2, err := RecoverWAL(core.New(e2, nil, core.Defaults(16)), fdir, 100, sim.NewMeter(e2.Model()))
		if err != nil {
			t.Fatalf("second recovery: %v", err)
		}
		w2.Close()
		if rep2.DiscardedBytes != 0 || rep2.Applied != rep.Applied {
			t.Fatalf("second recovery = %+v, first applied %d", rep2, rep.Applied)
		}
	})
}
