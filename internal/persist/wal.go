// Write-ahead-log persistence: the §7 alternative to snapshots.
//
// The paper notes that snapshot persistence loses every update since the
// last snapshot, and that the fine-grained alternative — "to store a log
// entry for each operation" — founders on the cost of SGX monotonic
// counters if every record is pinned individually. This file implements
// that alternative with the mitigation the paper points to (ROTE/LCM-style
// amortization): sealed log records carry a dense sequence number, and the
// platform counter is only bumped once per batch, bounding both the replay
// window and the counter cost.
//
// wal.bin is a run of frames (integers little-endian):
//
//	sealedLen(4) | seal(seq(8) | mutation)
//
// where mutation is the core.AppendMutation record — the same record the
// replication stream seals — so replay decodes it with core.DecodeMutation
// and applies it with core.Store.Exec, the partition worker's own switch.
//
// Guarantees:
//   - every acknowledged mutation survives a crash (replay from the last
//     snapshot + log);
//   - a tampered, truncated or reordered log fails recovery (sealing +
//     dense sequence numbers);
//   - rolling the whole log back past the last counter-pinned batch is
//     detected via the platform monotonic counter. Records after the last
//     pin but before a crash are protected by sealing but not by the
//     counter — exactly the bounded window the batch size buys.
package persist

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"

	"shieldstore/internal/core"
	"shieldstore/internal/fault"
	"shieldstore/internal/sim"
)

// ErrLogCorrupt reports an unreadable, tampered or non-contiguous log.
var ErrLogCorrupt = errors.New("persist: write-ahead log corrupt")

const walFile = "wal.bin"

// WAL wraps a core.Store with per-operation durability. Like the
// underlying store it is single-owner.
type WAL struct {
	main    *core.Store
	counter uint32

	f   *os.File
	seq uint64 // next record sequence number

	// batchEvery controls how many records share one monotonic-counter
	// increment (the ROTE-style amortization).
	batchEvery uint64
	pinnedSeq  uint64 // highest sequence covered by the platform counter

	faults *fault.Plane // optional crash-injection plane (tests)
}

// SetFaultPlane attaches a fault-injection plane (nil detaches).
func (w *WAL) SetFaultPlane(p *fault.Plane) { w.faults = p }

// NewWAL creates a write-ahead-logged store writing into dir. batchEvery
// bounds the rollback-unprotected tail (default 64).
func NewWAL(store *core.Store, dir string, batchEvery int) (*WAL, error) {
	store.Enclave().EnsureMonotonicCounter(CounterIDFor(dir + "/wal"))
	return openWAL(store, dir, batchEvery, 0)
}

// openWAL opens dir's log for appending, continuing at record seq with
// every earlier record counted as pinned.
//
//ss:host(log open at store construction or recovery, outside the measured window)
func openWAL(store *core.Store, dir string, batchEvery int, seq uint64) (*WAL, error) {
	if batchEvery <= 0 {
		batchEvery = 64
	}
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, err
	}
	return &WAL{
		main:       store,
		counter:    CounterIDFor(dir + "/wal"),
		f:          f,
		seq:        seq,
		batchEvery: uint64(batchEvery),
		pinnedSeq:  seq,
	}, nil
}

// Main exposes the wrapped store.
func (w *WAL) Main() *core.Store { return w.main }

// Seq returns the next record sequence number (tests).
func (w *WAL) Seq() uint64 { return w.seq }

// Close flushes and releases the log file. The Sync matters: records are
// written with write(2) only, and a close that drops them in the page
// cache would let a machine crash eat acknowledged, even counter-pinned,
// operations.
//
//ss:host(shutdown path, outside the measured window)
func (w *WAL) Close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// append seals and writes one log record, bumping the platform counter at
// batch boundaries. Each acknowledged record costs one enclave exit: the
// enclave cannot issue the write(2) itself, so the sealed bytes leave via
// an OCALL before the storage write is charged.
//
//ss:ocall
func (w *WAL) append(m *sim.Meter, op core.BatchOp) error {
	rec := binary.LittleEndian.AppendUint64(make([]byte, 0, 13+len(op.Key)+len(op.Value)), w.seq)
	rec = core.AppendMutation(rec, op)

	sealed := w.main.Enclave().Seal(m, rec)
	var frame [4]byte
	binary.LittleEndian.PutUint32(frame[:], uint32(len(sealed)))
	if w.faults.Hit(fault.PointWALTear) {
		// Crash mid-append: a deterministic prefix of frame+record reaches
		// the file, the rest never does. The sequence number is NOT
		// advanced — the operation was never acknowledged, so recovery must
		// treat the tail as garbage, not as a lost record.
		torn := append(append([]byte(nil), frame[:]...), sealed...)
		w.f.Write(torn[:w.faults.Pick(len(torn))])
		return fault.ErrInjected
	}
	if _, err := w.f.Write(frame[:]); err != nil {
		return err
	}
	if _, err := w.f.Write(sealed); err != nil {
		return err
	}
	w.main.Enclave().Syscall(m, false)
	m.Charge(w.main.Enclave().Model().StorageWrite(len(sealed) + 4))

	w.seq++
	if w.seq-w.pinnedSeq >= w.batchEvery {
		if _, err := w.main.Enclave().IncrementMonotonicCounter(m, w.counter); err != nil {
			return err
		}
		w.pinnedSeq = w.seq
	}
	return nil
}

// apply logs op, then applies it. Apply-first would lose the op on a
// crash between the two steps; log-first means replay may delete an
// absent key, which replay tolerates.
func (w *WAL) apply(m *sim.Meter, op core.BatchOp) error {
	if err := w.append(m, op); err != nil {
		return err
	}
	return w.main.Exec(m, op).Err
}

// Set logs then applies a set.
func (w *WAL) Set(m *sim.Meter, key, value []byte) error {
	return w.apply(m, core.BatchOp{Kind: core.BatchSet, Key: key, Value: value})
}

// Delete logs then applies a delete.
func (w *WAL) Delete(m *sim.Meter, key []byte) error {
	return w.apply(m, core.BatchOp{Kind: core.BatchDelete, Key: key})
}

// Append logs then applies a suffix append.
func (w *WAL) Append(m *sim.Meter, key, suffix []byte) error {
	return w.apply(m, core.BatchOp{Kind: core.BatchAppend, Key: key, Value: suffix})
}

// LogOp implements core.Journal: a partition worker calls it once per
// successfully applied mutation, in apply order, so replaying the log
// over the partition's last snapshot reproduces its state. Unlike
// Set/Delete/Append above (log-then-apply wrappers), the op is already
// applied when logged; the worker acknowledges the client only after
// journaling, so a crash between apply and log loses only unacknowledged
// work.
//
//ss:ocall
func (w *WAL) LogOp(m *sim.Meter, kind core.BatchKind, key, value []byte, delta int64) error {
	return w.append(m, core.BatchOp{Kind: kind, Key: key, Value: value, Delta: delta})
}

// Pin forces a counter increment covering every record so far (clean
// shutdown: shrinks the unprotected tail to zero).
func (w *WAL) Pin(m *sim.Meter) error {
	if w.pinnedSeq == w.seq {
		return nil
	}
	if _, err := w.main.Enclave().IncrementMonotonicCounter(m, w.counter); err != nil {
		return err
	}
	w.pinnedSeq = w.seq
	return nil
}

// minSeqRequired is conservative: `pins` increments imply at least
// (pins-1) full batches plus one record (the final pin may be an explicit
// shutdown Pin covering a partial batch).
func minSeqRequired(pins, batch uint64) uint64 {
	if pins == 0 {
		return 0
	}
	return (pins-1)*batch + 1
}
