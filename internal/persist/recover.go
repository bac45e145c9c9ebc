// Log replay: one scan, two policies for a bad tail.
//
// ReplayWAL and RecoverWAL both replay sealed records while they parse,
// authenticate and stay sequence-dense, through parseSealedRecord →
// core.DecodeMutation → core.Store.Exec. They differ only at the first
// invalid byte. ReplayWAL treats it as fatal — right for a log that must
// be intact — and leaves the file untouched. RecoverWAL treats it as the
// torn tail a crash mid-append legitimately leaves (see WAL.append's tear
// injection point): everything after the valid prefix is discarded and
// truncated off the file, with the discard reported. Security is the same
// either way — an attacker "tearing" the log deliberately can only shorten
// it, and a prefix shorter than the platform counter's pinned history
// fails with ErrRollback.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"shieldstore/internal/core"
	"shieldstore/internal/sim"
)

// RecoveryReport summarizes a crash recovery.
type RecoveryReport struct {
	// Applied is the number of log records replayed into the store.
	Applied uint64
	// DiscardedBytes is the size of the invalid tail truncated off the
	// log (0 for a clean log).
	DiscardedBytes int
	// TailErr is what was wrong with the discarded tail (nil when the
	// log was clean).
	TailErr error
}

// String renders the report for logs.
func (r *RecoveryReport) String() string {
	if r.TailErr == nil {
		return fmt.Sprintf("recovered: %d records, clean tail", r.Applied)
	}
	return fmt.Sprintf("recovered: %d records, %d tail bytes discarded (%v)",
		r.Applied, r.DiscardedBytes, r.TailErr)
}

// ReplayWAL rebuilds state by applying the log in dir to the given store
// (typically freshly restored from the last snapshot, or empty). It
// verifies sealing, sequence density, and that the log covers at least
// the batches pinned by the platform counter (rollback defense). Any
// defect fails with ErrLogCorrupt and leaves the file as it was. It
// returns a WAL positioned to continue appending.
func ReplayWAL(store *core.Store, dir string, batchEvery int, m *sim.Meter) (*WAL, error) {
	w, _, err := replayLog(store, dir, batchEvery, m, false)
	return w, err
}

// RecoverWAL rebuilds state from the log in dir, tolerating a torn tail:
// the longest valid record prefix is replayed into store, the rest is
// truncated off the file. The rollback defense is preserved — a prefix
// shorter than the platform counter's pinned history returns ErrRollback.
// On success the returned WAL continues appending after the last valid
// record.
func RecoverWAL(store *core.Store, dir string, batchEvery int, m *sim.Meter) (*WAL, *RecoveryReport, error) {
	return replayLog(store, dir, batchEvery, m, true)
}

// replayLog is the scan behind ReplayWAL and RecoverWAL; repair selects
// RecoverWAL's handling of a bad tail. Reading the log back is an enclave
// exit, charged up front.
//
//ss:ocall
//ss:attacker — a torn or tampered log is host-controlled input.
func replayLog(store *core.Store, dir string, batchEvery int, m *sim.Meter, repair bool) (*WAL, *RecoveryReport, error) {
	if batchEvery <= 0 {
		batchEvery = 64
	}
	pinned := store.Enclave().EnsureMonotonicCounter(CounterIDFor(dir + "/wal"))

	path := filepath.Join(dir, walFile)
	store.Enclave().Syscall(m, false)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, err
	}

	rep := &RecoveryReport{}
	valid := 0 // end of the last applied record
	for valid < len(data) {
		op, next, terr := parseSealedRecord(store, m, data, valid, rep.Applied)
		if terr != nil {
			rep.TailErr = terr
			break
		}
		// A store-level failure here is real (tampered memory, not a bad
		// log) and aborts replay. Deleting an absent key is not: log-first
		// Delete may have logged a key the store never held.
		if r := store.Exec(m, op); r.Err != nil && !(op.Kind == core.BatchDelete && errors.Is(r.Err, core.ErrNotFound)) {
			return nil, nil, r.Err
		}
		valid = next
		rep.Applied++
	}
	rep.DiscardedBytes = len(data) - valid
	if rep.TailErr != nil && !repair {
		return nil, nil, rep.TailErr
	}

	// Rollback defense: the platform counter moved once per full batch
	// (plus explicit pins). A log — or valid prefix — shorter than the
	// pinned history was rolled back.
	if need := minSeqRequired(pinned, uint64(batchEvery)); rep.Applied < need {
		return nil, nil, fmt.Errorf("%w: log has %d valid records but platform counter pins >= %d",
			ErrRollback, rep.Applied, need)
	}

	// Make the repair durable: the discarded tail must not resurrect on
	// the next recovery.
	if rep.DiscardedBytes > 0 {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, nil, err
		}
	}
	w, err := openWAL(store, dir, batchEvery, rep.Applied)
	if err != nil {
		return nil, nil, err
	}
	return w, rep, nil
}

// parseSealedRecord reads, unseals and decodes the record at off,
// returning its mutation and the offset past it. Any defect — short
// frame, bad seal, wrong sequence, malformed mutation — comes back as a
// typed ErrLogCorrupt describing the tail.
func parseSealedRecord(store *core.Store, m *sim.Meter, data []byte, off int, wantSeq uint64) (op core.BatchOp, next int, err error) {
	if off+4 > len(data) {
		return op, 0, fmt.Errorf("%w: truncated frame header", ErrLogCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if n <= 0 || off+n > len(data) {
		return op, 0, fmt.Errorf("%w: truncated record", ErrLogCorrupt)
	}
	rec, uerr := store.Enclave().Unseal(m, data[off:off+n])
	if uerr != nil {
		return op, 0, fmt.Errorf("%w: %v", ErrLogCorrupt, uerr)
	}
	if len(rec) < 8 {
		return op, 0, fmt.Errorf("%w: short record", ErrLogCorrupt)
	}
	if gotSeq := binary.LittleEndian.Uint64(rec); gotSeq != wantSeq {
		return op, 0, fmt.Errorf("%w: sequence %d, want %d (reordered or dropped)", ErrLogCorrupt, gotSeq, wantSeq)
	}
	if op, err = core.DecodeMutation(rec[8:]); err != nil {
		return op, 0, fmt.Errorf("%w: %v", ErrLogCorrupt, err)
	}
	return op, off + n, nil
}
