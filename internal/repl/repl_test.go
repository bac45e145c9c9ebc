// Applier semantics: in-order apply, gap detection and resend, duplicate
// skipping without double-apply, epoch fencing, reset (bootstrap) frames,
// and promote/state persistence. The sender side here is a hand-driven
// chain standing in for a Shipper, so each protocol transition can be
// exercised exactly.
package repl

import (
	"encoding/binary"
	"testing"

	"shieldstore/internal/cmac"
	"shieldstore/internal/core"
	"shieldstore/internal/proto"
	"shieldstore/internal/sgx"
	"shieldstore/internal/sim"
)

// testSender hand-encodes a shipper-side frame stream.
type testSender struct {
	e     *sgx.Enclave
	m     *sim.Meter
	chain *chainState
	seq   uint64
	epoch uint64
}

func newTestSender(seed uint64) *testSender {
	e := testEnclave(seed)
	return &testSender{e: e, m: sim.NewMeter(e.Model()), chain: newChain(e), epoch: 1}
}

// frame encodes a one-record frame.
func (s *testSender) frame(kind core.BatchKind, key, val string, delta int64) []byte {
	return s.run(core.BatchOp{Kind: kind, Key: []byte(key), Value: []byte(val), Delta: delta})
}

// run encodes ops as one frame, as a shipper seals one group commit.
func (s *testSender) run(ops ...core.BatchOp) []byte {
	s.seq++
	return encodeFrame(s.m, s.e, s.chain, s.seq, s.epoch, appendRun(nil, ops...))
}

// reset restarts the chain at genesis, as a bootstrapping shipper does.
func (s *testSender) reset() []byte {
	s.chain.reset()
	s.seq++
	return encodeFrame(s.m, s.e, s.chain, s.seq, s.epoch, nil)
}

func concat(frames ...[]byte) []byte {
	var out []byte
	for _, f := range frames {
		out = append(out, f...)
	}
	return out
}

// newTestApplier stands up a started 2-partition replica pool plus its
// applier, sharing sealing identity with seed.
func newTestApplier(t *testing.T, seed uint64, dir string) (*core.Partitioned, *Applier, *sim.Meter) {
	t.Helper()
	e := testEnclave(seed)
	p := core.NewPartitioned(e, 2, core.Defaults(64))
	a, err := NewApplier(p, ApplierOptions{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	t.Cleanup(p.Stop)
	return p, a, sim.NewMeter(e.Model())
}

func mustGet(t *testing.T, p *core.Partitioned, m *sim.Meter, key, want string) {
	t.Helper()
	v, err := p.Get(m, []byte(key))
	if err != nil {
		t.Fatalf("Get %s: %v", key, err)
	}
	if string(v) != want {
		t.Fatalf("Get %s = %q, want %q", key, v, want)
	}
}

func TestApplierAppliesStream(t *testing.T) {
	s := newTestSender(9)
	p, a, m := newTestApplier(t, 9, "")

	wm, st := a.Apply(m, concat(
		s.frame(core.BatchSet, "a", "1", 0),
		s.frame(core.BatchSet, "b", "2", 0),
		s.frame(core.BatchAppend, "b", "2", 0),
		s.frame(core.BatchIncr, "n", "", 5),
		s.frame(core.BatchDelete, "a", "", 0),
	))
	if st != proto.StatusOK || wm != 5 {
		t.Fatalf("Apply = (%d, %d), want (5, OK)", wm, st)
	}
	mustGet(t, p, m, "b", "22")
	mustGet(t, p, m, "n", "5")
	if _, err := p.Get(m, []byte("a")); err != core.ErrNotFound {
		t.Fatalf("deleted key: %v", err)
	}
	if got := m.Events(sim.CtrReplApplied); got != 5 {
		t.Fatalf("CtrReplApplied = %d, want 5", got)
	}
}

func TestApplierGapThenResend(t *testing.T) {
	s := newTestSender(9)
	p, a, m := newTestApplier(t, 9, "")

	f1 := s.frame(core.BatchSet, "k1", "v1", 0)
	f2 := s.frame(core.BatchSet, "k2", "v2", 0)
	f3 := s.frame(core.BatchIncr, "n", "", 1)

	// Drop f2 on the floor: the prefix applies, the rest must NOT.
	wm, st := a.Apply(m, concat(f1, f3))
	if st != proto.StatusReplGap || wm != 1 {
		t.Fatalf("gapped Apply = (%d, %d), want (1, ReplGap)", wm, st)
	}
	if _, err := p.Get(m, []byte("n")); err != core.ErrNotFound {
		t.Fatal("frame after the gap was applied out of order")
	}
	// Resend from watermark+1, in order: everything lands exactly once.
	wm, st = a.Apply(m, concat(f2, f3))
	if st != proto.StatusOK || wm != 3 {
		t.Fatalf("resend Apply = (%d, %d), want (3, OK)", wm, st)
	}
	mustGet(t, p, m, "k2", "v2")
	mustGet(t, p, m, "n", "1")
}

func TestApplierSkipsDuplicatesWithoutReapply(t *testing.T) {
	s := newTestSender(9)
	p, a, m := newTestApplier(t, 9, "")

	f1 := s.frame(core.BatchSet, "n", "5", 0)
	f2 := s.frame(core.BatchIncr, "n", "", 3)
	if _, st := a.Apply(m, concat(f1, f2)); st != proto.StatusOK {
		t.Fatalf("first Apply status %d", st)
	}
	// A retransmission overlapping the applied prefix (classic after a
	// partial ack loss): the duplicate Incr must not re-apply.
	f3 := s.frame(core.BatchSet, "done", "yes", 0)
	wm, st := a.Apply(m, concat(f1, f2, f3))
	if st != proto.StatusOK || wm != 3 {
		t.Fatalf("resend Apply = (%d, %d), want (3, OK)", wm, st)
	}
	mustGet(t, p, m, "n", "8")
	mustGet(t, p, m, "done", "yes")
}

func TestApplierRejectsReorderedAndTampered(t *testing.T) {
	s := newTestSender(9)
	p, a, m := newTestApplier(t, 9, "")

	f1 := s.frame(core.BatchSet, "x", "1", 0)
	f2 := s.frame(core.BatchSet, "x", "2", 0)

	// Reordered: the later frame first reads as a gap (chain can't
	// continue), and nothing of it applies.
	wm, st := a.Apply(m, concat(f2, f1))
	if st != proto.StatusReplGap || wm != 0 {
		t.Fatalf("reordered Apply = (%d, %d), want (0, ReplGap)", wm, st)
	}
	if _, err := p.Get(m, []byte("x")); err != core.ErrNotFound {
		t.Fatal("reordered frame was applied")
	}
	// In order they land fine.
	if _, st := a.Apply(m, concat(f1, f2)); st != proto.StatusOK {
		t.Fatalf("ordered Apply status %d", st)
	}
	mustGet(t, p, m, "x", "2")

	// Tampered: any byte flip in a frame is a chain break -> StatusError
	// (the stream is dead; only a bootstrap recovers it).
	f3 := s.frame(core.BatchSet, "x", "3", 0)
	mut := append([]byte(nil), f3...)
	mut[len(mut)/2] ^= 1
	if wm, st := a.Apply(m, mut); st != proto.StatusError || wm != 2 {
		t.Fatalf("tampered Apply = (%d, %d), want (2, Error)", wm, st)
	}
	mustGet(t, p, m, "x", "2")
}

func TestApplierEpochFencing(t *testing.T) {
	s := newTestSender(9)
	_, a, m := newTestApplier(t, 9, "")

	if a.Writable() {
		t.Fatal("replica writable before promotion")
	}
	if _, st := a.Apply(m, s.frame(core.BatchSet, "pre", "1", 0)); st != proto.StatusOK {
		t.Fatalf("pre-promotion Apply status %d", st)
	}

	// Promote must strictly advance the epoch.
	if ep, st := a.Promote(1); st != proto.StatusError || ep != 1 {
		t.Fatalf("Promote(1) = (%d, %d), want refusal at epoch 1", ep, st)
	}
	if ep, st := a.Promote(2); st != proto.StatusOK || ep != 2 {
		t.Fatalf("Promote(2) = (%d, %d)", ep, st)
	}
	if ep, st := a.Promote(2); st != proto.StatusOK || ep != 2 {
		t.Fatalf("idempotent Promote(2) = (%d, %d)", ep, st)
	}
	if ep, st := a.Promote(1); st != proto.StatusError || ep != 2 {
		t.Fatalf("stale Promote(1) = (%d, %d)", ep, st)
	}
	if !a.Writable() {
		t.Fatal("promoted replica not writable")
	}
	if got := m.Events(sim.CtrReplFailover) + a.Meter().Events(sim.CtrReplFailover); got != 1 {
		t.Fatalf("CtrReplFailover = %d, want 1", got)
	}

	// The old primary's stream (epoch 1) is now fenced out.
	wm := a.Watermark()
	gotWM, st := a.Apply(m, s.frame(core.BatchSet, "post", "2", 0))
	if st != proto.StatusFenced || gotWM != wm {
		t.Fatalf("stale-epoch Apply = (%d, %d), want (%d, Fenced)", gotWM, st, wm)
	}
}

func TestApplierResetWipesAndResyncs(t *testing.T) {
	s := newTestSender(9)
	p, a, m := newTestApplier(t, 9, "")

	if _, st := a.Apply(m, concat(
		s.frame(core.BatchSet, "old1", "x", 0),
		s.frame(core.BatchSet, "old2", "y", 0),
	)); st != proto.StatusOK {
		t.Fatal("seed stream failed")
	}

	// A restarted primary's bootstrap: fresh chain, sequence jumped past
	// the replica's horizon (the shipper learns the horizon from the
	// watermark guard), genesis reset, then the snapshot.
	s2 := newTestSender(9)
	s2.seq = a.Watermark() + 3 // any jump forward is legal
	wm, st := a.Apply(m, concat(
		s2.reset(),
		s2.frame(core.BatchSet, "new1", "n1", 0),
	))
	if st != proto.StatusOK || wm != s2.seq {
		t.Fatalf("bootstrap Apply = (%d, %d), want (%d, OK)", wm, st, s2.seq)
	}
	if _, err := p.Get(m, []byte("old1")); err != core.ErrNotFound {
		t.Fatal("reset did not wipe old state")
	}
	mustGet(t, p, m, "new1", "n1")

	// A reset below the horizon is a replay: dup-skipped, never applied.
	s3 := newTestSender(9)
	reset := s3.reset() // seq 1 < watermark
	wmBefore := a.Watermark()
	wm, st = a.Apply(m, reset)
	if st != proto.StatusOK || wm != wmBefore {
		t.Fatalf("replayed reset = (%d, %d), want (%d, OK)", wm, st, wmBefore)
	}
	mustGet(t, p, m, "new1", "n1")
}

func TestApplierPromotionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, a, _ := newTestApplier(t, 9, dir)
	if ep, st := a.Promote(4); st != proto.StatusOK || ep != 4 {
		t.Fatalf("Promote(4) = (%d, %d)", ep, st)
	}

	// A new applier over the same state dir must wake up fenced at epoch
	// 4 — the one fact that may never be forgotten across a restart.
	_, a2, m2 := newTestApplier(t, 9, dir)
	if a2.Epoch() != 4 {
		t.Fatalf("restarted epoch = %d, want 4", a2.Epoch())
	}
	s := newTestSender(9) // epoch 1 stream: the fenced old primary
	if _, st := a2.Apply(m2, s.frame(core.BatchSet, "k", "v", 0)); st != proto.StatusFenced {
		t.Fatalf("stale stream after restart: status %d, want Fenced", st)
	}
}

// v1Frame encodes a frame of the v1 format: one bare record per
// frame, a part(2) header field, and a chain under "repl-chain-v1".
func v1Frame(m *sim.Meter, e *sgx.Enclave, chain *chainState, seq uint64, rec []byte) []byte {
	blob := e.Seal(m, rec)
	out := make([]byte, 22, 22+len(blob)+cmac.Size)
	binary.LittleEndian.PutUint64(out[0:8], seq)
	binary.LittleEndian.PutUint64(out[8:16], 1)
	binary.LittleEndian.PutUint16(out[16:18], 0)
	binary.LittleEndian.PutUint32(out[18:22], uint32(len(blob)))
	out = append(out, blob...)
	tag := chain.extend(m, e.Model(), out)
	return append(out, tag[:]...)
}

// oldChain is a fresh chain (zero tag) under an earlier format's label.
// Earlier formats MAC'd a reset against the zero tag too, so a fresh
// oldChain's first frame is also that format's bootstrap reset.
func oldChain(t *testing.T, e *sgx.Enclave, label string) *chainState {
	t.Helper()
	key := e.DeriveKey(label)
	mac, err := cmac.New(key.Bytes()[:16])
	if err != nil {
		t.Fatal(err)
	}
	c := &chainState{mac: mac, key: key}
	t.Cleanup(c.release)
	return c
}

// TestApplierRefusesV1Stream: a peer built for an earlier frame format
// is refused with StatusError, and nothing it sends is applied. A v1
// peer's own layout fails to decode, and a stream in the current layout
// under the v1 or v2 chain key ("repl-chain-v1", "repl-chain-v2") fails
// the chain check, bootstrap reset included — so its records are never
// misparsed.
func TestApplierRefusesV1Stream(t *testing.T) {
	e := testEnclave(9)
	m := sim.NewMeter(e.Model())
	op := core.BatchOp{Kind: core.BatchSet, Key: []byte("k"), Value: []byte("v")}
	set := core.AppendMutation(nil, op)

	streams := map[string][]byte{}
	v1 := oldChain(t, e, "repl-chain-v1")
	streams["v1 layout bootstrap"] = concat(v1Frame(m, e, v1, 1, nil), v1Frame(m, e, v1, 2, set))
	streams["v1 layout chained"] = v1Frame(m, e, oldChain(t, e, "repl-chain-v1"), 1, set)
	for _, v := range []string{"v1", "v2"} {
		label := "repl-chain-" + v
		c := oldChain(t, e, label)
		streams[v+" key bootstrap"] = concat(encodeFrame(m, e, c, 1, 1, nil), encodeFrame(m, e, c, 2, 1, appendRun(nil, op)))
		streams[v+" key chained"] = encodeFrame(m, e, oldChain(t, e, label), 1, 1, appendRun(nil, op))
	}
	for name, payload := range streams {
		p, a, am := newTestApplier(t, 9, "")
		if wm, st := a.Apply(am, payload); st != proto.StatusError || wm != 0 {
			t.Fatalf("%s: Apply = (%d, %d), want (0, Error)", name, wm, st)
		}
		if _, err := p.Get(am, []byte("k")); err != core.ErrNotFound {
			t.Fatalf("%s: record applied: %v", name, err)
		}
		if got := am.Events(sim.CtrReplApplied); got != 0 {
			t.Fatalf("%s: CtrReplApplied = %d, want 0", name, got)
		}
	}
}

// TestApplierTakesResetOnFreshChain: a fresh applier's chain is at the
// zero tag, a reset's MAC is over genesis, so a bootstrap arriving at a
// fresh replica is applied as a reset the first time — whether its reset
// is seq 1 (a fresh shipper, as when a node re-protects its shard) or
// well past it (a migrated stream).
func TestApplierTakesResetOnFreshChain(t *testing.T) {
	for _, from := range []uint64{0, 40} {
		s := newTestSender(9)
		p, a, m := newTestApplier(t, 9, "")
		s.seq = from
		wm, st := a.Apply(m, concat(s.reset(), s.frame(core.BatchSet, "k", "v", 0)))
		if st != proto.StatusOK || wm != from+2 {
			t.Fatalf("bootstrap from seq %d to a fresh applier = (%d, %d), want (%d, OK)", from+1, wm, st, from+2)
		}
		mustGet(t, p, m, "k", "v")
	}
}

// TestApplierSeqMismatchKeepsChain: a frame whose MAC extends the chain
// but whose sequence is not the next one is not applied, and the chain
// stays where it was, so the honest frame at that sequence still
// verifies.
func TestApplierSeqMismatchKeepsChain(t *testing.T) {
	p, a, m := newTestApplier(t, 9, "")
	skip := newTestSender(9)
	skip.seq = 1 // seq 2, MAC'd over the fresh chain's zero tag
	if wm, st := a.Apply(m, skip.frame(core.BatchSet, "x", "1", 0)); st == proto.StatusOK || wm != 0 {
		t.Fatalf("out-of-sequence frame = (%d, %d), want watermark 0 and a refusal", wm, st)
	}
	honest := newTestSender(9)
	if wm, st := a.Apply(m, honest.frame(core.BatchSet, "y", "2", 0)); st != proto.StatusOK || wm != 1 {
		t.Fatalf("honest frame after the refusal = (%d, %d), want (1, OK)", wm, st)
	}
	mustGet(t, p, m, "y", "2")
	if _, err := p.Get(m, []byte("x")); err != core.ErrNotFound {
		t.Fatalf("out-of-sequence record applied: %v", err)
	}
}

// TestApplierRejectsBadRuns: a chained frame must carry at least one
// record (only a reset is empty), and a run with one malformed record is
// refused whole — none of its records apply.
func TestApplierRejectsBadRuns(t *testing.T) {
	s := newTestSender(9)
	p, a, m := newTestApplier(t, 9, "")
	if wm, st := a.Apply(m, s.run()); st != proto.StatusError || wm != 0 {
		t.Fatalf("empty chained run: Apply = (%d, %d), want (0, Error)", wm, st)
	}

	s = newTestSender(9)
	p, a, m = newTestApplier(t, 9, "")
	good := appendRun(nil, core.BatchOp{Kind: core.BatchSet, Key: []byte("k"), Value: []byte("v")})
	bad := append(good, 1, 0, 0, 0, byte(core.BatchGet))
	s.seq++
	if wm, st := a.Apply(m, encodeFrame(s.m, s.e, s.chain, s.seq, s.epoch, bad)); st != proto.StatusError || wm != 0 {
		t.Fatalf("malformed run: Apply = (%d, %d), want (0, Error)", wm, st)
	}
	if _, err := p.Get(m, []byte("k")); err != core.ErrNotFound {
		t.Fatalf("record of a refused run applied: %v", err)
	}
}
