// The replica side of replication: the Applier verifies each frame's
// chain MAC and sequence, unseals its run, replays the run through its
// own partition workers as one batch, and acks the highest contiguously
// applied sequence (the watermark). Reads the replica serves before
// promotion are therefore always a prefix of the primary's acknowledged
// history — never a made-up state. Promotion (CmdPromote) seals a new
// fencing epoch and flips the node writable; a recovered old primary
// shipping frames at the stale epoch is rejected with StatusFenced.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"shieldstore/internal/core"
	"shieldstore/internal/proto"
	"shieldstore/internal/sgx"
	"shieldstore/internal/sim"
)

// sealEvery is how many applied frames may pass between epoch/watermark
// seals — the durability cadence of the replica's fencing state.
const sealEvery = 256

// replStateFile holds the replica's sealed {epoch, nextSeq} pair.
const replStateFile = "repl.state"

// ApplierOptions configures a replica's apply engine.
type ApplierOptions struct {
	// Dir, when set, persists the sealed fencing state (epoch). Only the
	// epoch is honored across a restart: a restarted replica always
	// re-syncs its data via bootstrap, but it must never forget that it
	// was promoted or that the old primary was fenced.
	Dir string
	// Epoch is the initial fencing epoch (default 1).
	Epoch uint64
	// Logf receives apply failures worth an operator's attention.
	Logf func(format string, args ...any)
}

// Applier is the replica-side replication engine: wire its Apply,
// Promote and Writable methods into server.Config's Replicate, Promote
// and Writable hooks.
type Applier struct {
	p       *core.Partitioned
	enclave *sgx.Enclave
	opts    ApplierOptions
	meter   *sim.Meter

	// mu serializes Apply/Promote (one replication stream at a time; the
	// serving data path never takes it).
	mu        sync.Mutex
	chain     *chainState
	nextSeq   uint64
	epoch     uint64
	promoted  bool
	sinceSeal int
	frameBuf  Frame
	ops       []core.BatchOp // the current frame's decoded run
}

// NewApplier builds a replica apply engine over pool p. The pool's
// enclave must share the primary's sealing identity (the same Seed in
// the simulation) or no shipped frame will unseal or verify.
func NewApplier(p *core.Partitioned, opts ApplierOptions) (*Applier, error) {
	if opts.Epoch == 0 {
		opts.Epoch = 1
	}
	a := &Applier{
		p:       p,
		enclave: p.Enclave(),
		opts:    opts,
		meter:   sim.NewMeter(p.Enclave().Model()),
		chain:   newChain(p.Enclave()),
		nextSeq: 1,
		epoch:   opts.Epoch,
	}
	if err := a.loadState(); err != nil {
		return nil, err
	}
	return a, nil
}

// Close wipes the chain key and retires the apply engine. Frames arriving
// after Close fail chain verification (the MAC engine is gone), so a
// late-shipping primary gets StatusError rather than silent acceptance.
func (a *Applier) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.chain.release()
}

// Watermark returns the highest contiguously applied frame sequence.
func (a *Applier) Watermark() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.nextSeq - 1
}

// Epoch returns the replica's current fencing epoch.
func (a *Applier) Epoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// Writable reports whether this node accepts client mutations: a replica
// only after promotion. Wire into server.Config.Writable.
func (a *Applier) Writable() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.promoted
}

// Meter exposes the applier's own meter (state-seal costs accrue here).
func (a *Applier) Meter() *sim.Meter { return a.meter }

// Promote adopts a new fencing epoch and flips the node writable — the
// failover/cutover entry point (CmdPromote). Idempotent at the current
// epoch; a lower epoch is rejected (some other node was promoted past
// us). The epoch is sealed to disk before the promotion is acked, so the
// fence survives a replica restart.
func (a *Applier) Promote(epoch uint64) (uint64, uint8) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch {
	case epoch < a.epoch:
		return a.epoch, proto.StatusError // someone was promoted past us
	case epoch == a.epoch && a.promoted:
		return a.epoch, proto.StatusOK // idempotent re-promote
	case epoch == a.epoch:
		// Promotion must strictly advance the epoch or the old primary's
		// stream would still verify as current.
		return a.epoch, proto.StatusError
	}
	a.epoch = epoch
	a.promoted = true
	a.meter.Count(sim.CtrReplFailover)
	a.sealState()
	return a.epoch, proto.StatusOK
}

// Apply verifies and applies one CmdReplicate payload (a sequence of frames)
// and returns the watermark plus a wire status:
//
//   - StatusOK: every frame applied (or was a known duplicate).
//   - StatusReplGap: a contiguous prefix applied; resend from
//     watermark+1 (sequence gap, or a transient apply failure).
//   - StatusFenced: the stream's epoch is older than ours — the sender
//     was fenced out by a promotion.
//   - StatusError: chain break or malformed frame — the stream cannot
//     continue; the shipper must bootstrap a fresh one.
func (a *Applier) Apply(m *sim.Meter, payload []byte) (uint64, uint8) {
	a.mu.Lock()
	defer a.mu.Unlock()
	off := 0
	for off < len(payload) {
		f := &a.frameBuf
		n, body, blob, tag, err := decodeFrame(f, payload[off:])
		if err != nil {
			a.logf("repl: apply: malformed frame at offset %d: %v", off, err)
			return a.nextSeq - 1, proto.StatusError
		}
		off += n
		if f.Epoch < a.epoch {
			// Fencing outranks duplicate detection: a fenced ex-primary's
			// fresh stream restarts at low sequence numbers, and dup-skipping
			// those would silently "ack" writes this promoted node never saw.
			return a.nextSeq - 1, proto.StatusFenced
		}
		if f.Seq < a.nextSeq {
			// Duplicate of an already-applied frame (a resend overlaps the
			// applied prefix). The chain already covers it; skip without
			// re-verifying or re-applying (Incr/Append are not idempotent).
			continue
		}
		// A reset frame restarts the chain (genesis MAC, may jump the
		// sequence forward); anything else must extend it in exact
		// sequence order. What marks a reset (its empty run) is sealed,
		// so classify by which verification succeeds: continuation
		// first — only at nextSeq, so a frame out of sequence never
		// advances the chain — and genesis as the fallback. Genesis is
		// not the zero tag a fresh chain starts at, so no frame verifies
		// both ways.
		model := a.enclave.Model()
		isReset := false
		switch {
		case f.Seq == a.nextSeq && a.chain.check(m, model, body, tag):
		case a.chain.checkGenesis(m, model, body, tag):
			isReset = true
		case f.Seq > a.nextSeq:
			return a.nextSeq - 1, proto.StatusReplGap
		default:
			a.logf("repl: apply: chain break at seq %d", f.Seq)
			return a.nextSeq - 1, proto.StatusError
		}
		run, err := a.enclave.Unseal(m, blob)
		if err != nil {
			a.logf("repl: apply: unseal failed at seq %d: %v", f.Seq, err)
			return a.nextSeq - 1, proto.StatusError
		}
		if isReset {
			// A genesis-MAC'd frame must carry the empty reset run.
			if len(run) != 0 {
				return a.nextSeq - 1, proto.StatusError
			}
			if f.Epoch > a.epoch {
				a.epoch = f.Epoch
			}
			a.resetParts()
			a.nextSeq = f.Seq + 1
			m.Count(sim.CtrReplApplied)
			a.sealState()
			continue
		}
		// A chained frame must carry at least one record: only a reset
		// is empty.
		if len(run) == 0 {
			return a.nextSeq - 1, proto.StatusError
		}
		if a.ops, err = core.DecodeMutationRun(a.ops[:0], run); err != nil {
			a.logf("repl: apply: bad run at seq %d: %v", f.Seq, err)
			return a.nextSeq - 1, proto.StatusError
		}
		if err := a.applyRun(m); err != nil {
			// The frame verified but the engine refused it (e.g. the target
			// partition is mid-rebuild). Rewind the chain? No — the chain
			// advanced, so a blind retry would fail verification. Force a
			// re-sync instead: cheaper than a poisoned stream.
			a.logf("repl: apply: engine refused seq %d: %v", f.Seq, err)
			return a.nextSeq - 1, proto.StatusError
		}
		a.nextSeq = f.Seq + 1
		m.Count(sim.CtrReplApplied)
		a.sinceSeal++
		if a.sinceSeal >= sealEvery {
			a.sealState()
		}
	}
	return a.nextSeq - 1, proto.StatusOK
}

// applyRun replays one verified frame's run as one batch through the
// partition workers. Each partition applies its records in run order, so
// per-key order holds; frames still apply strictly one after another.
func (a *Applier) applyRun(m *sim.Meter) error {
	defer clear(a.ops) // drop references into the unsealed run
	for i, r := range a.p.SubmitBatch(m, a.ops).Wait() {
		// Deleting an absent key replays cleanly (e.g. after a bootstrap
		// snapshot raced a delete the stream then repeats).
		if r.Err != nil && !(a.ops[i].Kind == core.BatchDelete && errors.Is(r.Err, core.ErrNotFound)) {
			return fmt.Errorf("record %d: %w", i, r.Err)
		}
	}
	return nil
}

// resetParts wipes every partition to an empty store with the same
// options — the destructive first step of a bootstrap (a reset frame).
func (a *Applier) resetParts() {
	for i := 0; i < a.p.Parts(); i++ {
		a.p.RunCtl(i, func(st *core.WorkerState) {
			opts := st.Store.Options()
			ns := core.New(a.p.Enclave(), a.p.Cipher(), opts)
			ns.ConfigureCache(opts.CacheBytes)
			st.Store = ns
			a.p.InstallPart(i, ns)
		})
	}
}

func (a *Applier) logf(format string, args ...any) {
	if a.opts.Logf != nil {
		a.opts.Logf(format, args...)
	}
}

// sealState persists the sealed {epoch, nextSeq} pair. Only the epoch is
// authoritative across restarts (see ApplierOptions.Dir); the sequence is
// informational.
//
//ss:ocall — state persistence is a host write.
func (a *Applier) sealState() {
	a.sinceSeal = 0
	if a.opts.Dir == "" {
		return
	}
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:8], a.epoch)
	binary.LittleEndian.PutUint64(b[8:16], a.nextSeq)
	blob := a.enclave.Seal(a.meter, b[:])
	a.enclave.Syscall(a.meter, false)
	if err := os.WriteFile(filepath.Join(a.opts.Dir, replStateFile), blob, 0o600); err != nil {
		a.logf("repl: seal state: %v", err)
		return
	}
	a.meter.Charge(a.enclave.Model().StorageWrite(len(blob)))
}

// loadState restores the sealed fencing epoch after a restart. Missing
// state is a fresh replica; a higher sealed epoch than the configured one
// wins (the node was promoted or fenced before the restart).
//
//ss:ocall — state restore is a host read.
func (a *Applier) loadState() error {
	if a.opts.Dir == "" {
		return nil
	}
	a.enclave.Syscall(a.meter, false)
	blob, err := os.ReadFile(filepath.Join(a.opts.Dir, replStateFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	b, err := a.enclave.Unseal(a.meter, blob)
	if err != nil || len(b) < 16 {
		// Tampered or foreign state: refuse to guess about fencing.
		return ErrFrameCorrupt
	}
	if ep := binary.LittleEndian.Uint64(b[0:8]); ep > a.epoch {
		a.epoch = ep
	}
	return nil
}
