package repl

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"shieldstore/internal/core"
	"shieldstore/internal/persist"
	"shieldstore/internal/proto"
	"shieldstore/internal/sim"
)

// mutationScript is a seeded run of set/append/incr/delete ops and the
// map model's end state. Counter keys only ever hold decimal numbers so
// every incr applies; text keys never see an incr.
func mutationScript(seed int64, n int) ([]core.BatchOp, map[string]string) {
	rng := rand.New(rand.NewSource(seed))
	model := map[string]string{}
	ops := []core.BatchOp{
		{Kind: core.BatchDelete, Key: []byte("ghost")},         // delete of an absent key
		{Kind: core.BatchIncr, Key: []byte("fresh"), Delta: 7}, // incr of a fresh key
	}
	model["fresh"] = "7"
	for len(ops) < n {
		counter := rng.Intn(2) == 0
		key := fmt.Sprintf("t%d", rng.Intn(12))
		val := fmt.Sprintf("v%d", rng.Intn(1000))
		if counter {
			key = fmt.Sprintf("n%d", rng.Intn(8))
			val = strconv.Itoa(rng.Intn(100))
		}
		op := core.BatchOp{Key: []byte(key)}
		switch k := rng.Intn(4); {
		case k == 0:
			op.Kind, op.Value = core.BatchSet, []byte(val)
			model[key] = val
		case k == 1:
			op.Kind, op.Value = core.BatchAppend, []byte(val)
			model[key] += val
		case k == 2 && counter:
			op.Kind, op.Delta = core.BatchIncr, int64(rng.Intn(200)-100)
			cur, _ := strconv.ParseInt(model[key], 10, 64)
			model[key] = strconv.FormatInt(cur+op.Delta, 10)
		default:
			op.Kind = core.BatchDelete
			delete(model, key)
		}
		ops = append(ops, op)
	}
	return ops, model
}

// checkAgainstModel compares a store's view of every scripted key with
// the model.
func checkAgainstModel(t *testing.T, who string, get func(key []byte) ([]byte, error), keys int, model map[string]string) {
	t.Helper()
	if keys != len(model) {
		t.Errorf("%s: %d keys, model has %d", who, keys, len(model))
	}
	universe := []string{"ghost", "fresh"}
	for i := 0; i < 12; i++ {
		universe = append(universe, fmt.Sprintf("t%d", i), fmt.Sprintf("n%d", i))
	}
	for _, k := range universe {
		got, err := get([]byte(k))
		want, ok := model[k]
		switch {
		case !ok && !errors.Is(err, core.ErrNotFound):
			t.Errorf("%s: %s = %q/%v, want absent", who, k, got, err)
		case ok && (err != nil || string(got) != want):
			t.Errorf("%s: %s = %q/%v, want %q", who, k, got, err, want)
		}
	}
}

// TestWALAndReplicaAnswerAlike runs one mutation script through both
// consumers of the mutation record — the write-ahead log (journal, then
// crash recovery) and the replication stream (runs of records sealed into
// frames, applied as batches) — and requires both end states to equal the
// model key for key.
func TestWALAndReplicaAnswerAlike(t *testing.T) {
	ops, model := mutationScript(38, 200)

	// Journal path: LogOp every op, then recover into an empty store.
	dir := t.TempDir()
	e := testEnclave(13)
	m := sim.NewMeter(e.Model())
	w, err := persist.NewWAL(core.New(e, nil, core.Defaults(64)), dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := w.LogOp(m, op.Kind, op.Key, op.Value, op.Delta); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recovered := core.New(e, nil, core.Defaults(64))
	w2, rep, err := persist.RecoverWAL(recovered, dir, 16, m)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if rep.Applied != uint64(len(ops)) || rep.TailErr != nil {
		t.Fatalf("recovery: %v, want %d clean records", rep, len(ops))
	}
	checkAgainstModel(t, "wal", func(k []byte) ([]byte, error) { return recovered.Get(m, k) },
		recovered.Keys(), model)

	// Replication path: ship the same ops as runs of seeded random size
	// (1-64 records, a group commit's drain), so one frame holds same-key
	// sets, appends, incrs and deletes in order; three frames to a payload.
	s := newTestSender(13)
	p, a, am := newTestApplier(t, 13, "")
	rng := rand.New(rand.NewSource(49))
	var payload []byte
	frames, mixed := 0, false
	for i := 0; i < len(ops); {
		run := ops[i:min(i+1+rng.Intn(64), len(ops))]
		i += len(run)
		mixed = mixed || mixesKinds(run)
		payload = append(payload, s.run(run...)...)
		frames++
		if frames%3 == 0 || i == len(ops) {
			if wm, st := a.Apply(am, payload); st != proto.StatusOK || wm != uint64(frames) {
				t.Fatalf("Apply through frame %d = (%d, %d), want (%d, OK)", frames, wm, st, frames)
			}
			payload = payload[:0]
		}
	}
	if !mixed {
		t.Fatal("no frame carried a set, an append, an incr and a delete of one key")
	}
	checkAgainstModel(t, "replica", func(k []byte) ([]byte, error) { return p.Get(am, k) }, p.Keys(), model)
}

// mixesKinds reports whether run touches one key with all four mutation
// kinds.
func mixesKinds(run []core.BatchOp) bool {
	kinds := map[string]map[core.BatchKind]bool{}
	for _, op := range run {
		k := string(op.Key)
		if kinds[k] == nil {
			kinds[k] = map[core.BatchKind]bool{}
		}
		kinds[k][op.Kind] = true
		if len(kinds[k]) == 4 {
			return true
		}
	}
	return false
}
