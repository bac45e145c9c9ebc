// The one encoding of a mutation. A journaled mutation is the
// (kind, key, value, delta) tuple Journal.LogOp receives; the write-ahead
// log (persist) and the replication stream (repl) both seal exactly this
// record, so one codec and one fuzzer cover every mutation that leaves
// the enclave, and one apply switch (Store.Exec) replays it.
//
// Record layout (integers little-endian):
//
//	kind(1) | keyLen(4) | key | payload
//
// kind is the BatchKind. The payload is the value for a set, the suffix
// for an append, the 8-byte delta for an incr and empty for a delete.
//
// A run is a sequence of records, each prefixed with its length, so one
// sealed blob can carry a whole group commit's mutations in order:
//
//	{ recLen(4) | record }*
package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"shieldstore/internal/sim"
)

// mutationHdr is the fixed record header: kind(1)+keyLen(4).
const mutationHdr = 5

// ErrBadMutation reports a malformed mutation record.
var ErrBadMutation = errors.New("core: malformed mutation record")

// AppendMutation appends op's record to dst. op must be a mutation (any
// kind but BatchGet); an incr's Value and a delete's Value are not
// encoded.
func AppendMutation(dst []byte, op BatchOp) []byte {
	dst = append(dst, byte(op.Kind))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(op.Key)))
	dst = append(dst, op.Key...)
	switch op.Kind {
	case BatchIncr:
		return binary.LittleEndian.AppendUint64(dst, uint64(op.Delta))
	case BatchDelete:
		return dst
	}
	return append(dst, op.Value...)
}

// DecodeMutation parses one record. Key and Value alias rec. Every
// accepted record re-encodes byte for byte.
//
//ss:attacker — records come off a host-controlled log or a peer's link.
func DecodeMutation(rec []byte) (BatchOp, error) {
	if len(rec) < mutationHdr {
		return BatchOp{}, fmt.Errorf("%w: %d-byte record", ErrBadMutation, len(rec))
	}
	op := BatchOp{Kind: BatchKind(rec[0])}
	kl := binary.LittleEndian.Uint32(rec[1:mutationHdr])
	if uint64(kl) > uint64(len(rec)-mutationHdr) {
		return BatchOp{}, fmt.Errorf("%w: key length %d overruns record", ErrBadMutation, kl)
	}
	end := mutationHdr + int(kl)
	op.Key = rec[mutationHdr:end]
	payload := rec[end:]
	switch op.Kind {
	case BatchSet, BatchAppend:
		op.Value = payload
	case BatchDelete:
		if len(payload) != 0 {
			return BatchOp{}, fmt.Errorf("%w: delete carries %d payload bytes", ErrBadMutation, len(payload))
		}
	case BatchIncr:
		if len(payload) != 8 {
			return BatchOp{}, fmt.Errorf("%w: incr payload must be 8 bytes, got %d", ErrBadMutation, len(payload))
		}
		op.Delta = int64(binary.LittleEndian.Uint64(payload))
	default:
		return BatchOp{}, fmt.Errorf("%w: kind %d", ErrBadMutation, op.Kind)
	}
	return op, nil
}

// runLenSize is the length prefix of each record in a run.
const runLenSize = 4

// AppendMutationRun appends op to the run in dst as recLen(4) | record.
func AppendMutationRun(dst []byte, op BatchOp) []byte {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = AppendMutation(dst, op)
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-runLenSize))
	return dst
}

// DecodeMutationRun appends the run's records to dst in run order. Every
// length is checked, and one bad record fails the whole run: on error dst
// comes back at its original length. The ops alias run.
//
//ss:attacker — runs come off a peer's link.
func DecodeMutationRun(dst []BatchOp, run []byte) ([]BatchOp, error) {
	base := len(dst)
	for off := 0; off < len(run); {
		if len(run)-off < runLenSize {
			return dst[:base], fmt.Errorf("%w: %d-byte run tail", ErrBadMutation, len(run)-off)
		}
		n := binary.LittleEndian.Uint32(run[off:])
		off += runLenSize
		if uint64(n) > uint64(len(run)-off) {
			return dst[:base], fmt.Errorf("%w: record length %d overruns run", ErrBadMutation, n)
		}
		op, err := DecodeMutation(run[off : off+int(n)])
		if err != nil {
			return dst[:base], fmt.Errorf("record %d: %w", len(dst)-base, err)
		}
		dst = append(dst, op)
		off += int(n)
	}
	return dst, nil
}

// Exec runs one op through the store's per-op entry points: the single
// kind switch shared by the partition worker and log replay.
func (s *Store) Exec(m *sim.Meter, op BatchOp) BatchResult {
	var r BatchResult
	switch op.Kind {
	case BatchGet:
		r.Val, r.Err = s.Get(m, op.Key)
	case BatchSet:
		r.Err = s.Set(m, op.Key, op.Value)
	case BatchDelete:
		r.Err = s.Delete(m, op.Key)
	case BatchAppend:
		r.Err = s.Append(m, op.Key, op.Value)
	case BatchIncr:
		r.Num, r.Err = s.Incr(m, op.Key, op.Delta)
	default:
		r.Err = ErrBadBatchOp
	}
	return r
}
