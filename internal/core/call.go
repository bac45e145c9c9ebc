// Pooled call slots for the worker pool — the runtime-level analogue of
// the paper's HotCalls front-end. The seed dispatch path allocated a
// closure plus a fresh `done` channel for every operation and woke the
// worker once per task; a Call is a reusable request slot (op kind,
// key/value refs, result slots, recycled completion channel) handed to
// the partition worker over a plain channel, and workers drain their
// queue in batches so one request-dispatch overhead covers a whole
// wakeup (see DESIGN.md §9 "Exitless dispatch").
package core

import (
	"sync"

	"shieldstore/internal/sim"
)

// drainBatch bounds how many pending calls a worker dequeues per wakeup.
const drainBatch = 64

// Call is one in-flight operation against a partition worker. Calls are
// pooled: Submit/SubmitBatch take one from the pool, the worker fills the
// result slots and signals done, and Wait recycles it. A Call must not be
// touched after Wait returns.
type Call struct {
	op      BatchOp // the single op (!isBatch)
	isBatch bool

	// Batch fields (isBatch): the per-partition sub-batch, the submission
	// index of each sub-op, and the BatchCall's shared results slice
	// (distinct partitions write disjoint slots).
	batch   []BatchOp
	scatter []int
	results []BatchResult

	// Single-op result slots.
	val []byte
	num int64
	err error

	// done is the recycled completion primitive: capacity 1, one send per
	// execution, one receive per Wait.
	done chan struct{}
}

var callPool = sync.Pool{
	New: func() any { return &Call{done: make(chan struct{}, 1)} },
}

func getCall() *Call { return callPool.Get().(*Call) }

// putCall clears the slot's references (so pooled calls don't pin request
// buffers) and returns it to the pool.
func putCall(c *Call) {
	c.op, c.val = BatchOp{}, nil
	c.err = nil
	c.results = nil
	clear(c.batch)
	c.batch = c.batch[:0]
	c.scatter = c.scatter[:0]
	callPool.Put(c)
}

// Submit enqueues one operation on key's partition worker and returns its
// call slot. kind is one of the Batch* op kinds; value holds the Set
// value or Append suffix, delta the Incr amount. The caller must keep key
// and value alive and unmodified until Wait returns. Start must have been
// called.
//
//ss:xpart — the dispatch plane routes into a partition's queue; the worker behind it owns the Store.
func (p *Partitioned) Submit(routeM *sim.Meter, kind BatchKind, key, value []byte, delta int64) *Call {
	c := getCall()
	c.op = BatchOp{Kind: kind, Key: key, Value: value, Delta: delta}
	c.isBatch = false
	p.workers[p.Route(routeM, key)] <- c
	return c
}

// Wait blocks until the call completes, recycles the slot, and returns
// the result triple (value for Get, number for Incr, error).
func (c *Call) Wait() ([]byte, int64, error) {
	<-c.done
	val, num, err := c.val, c.num, c.err
	putCall(c)
	return val, num, err
}

// BatchCall tracks a heterogeneous batch in flight across partitions: one
// pooled Call per involved partition, all scattering into one shared
// results slice.
type BatchCall struct {
	results []BatchResult
	calls   []*Call
}

// SubmitBatch routes ops to their partition workers (one call slot per
// involved partition, as ExecBatch always did) without waiting. The
// caller must keep the ops' key/value buffers alive until Wait returns.
//
//ss:xpart — dispatch-plane routing across partition queues.
func (p *Partitioned) SubmitBatch(routeM *sim.Meter, ops []BatchOp) *BatchCall {
	bc := &BatchCall{results: make([]BatchResult, len(ops))}
	if len(ops) == 0 {
		return bc
	}
	calls := make([]*Call, len(p.parts))
	for i := range ops {
		part := p.Route(routeM, ops[i].Key)
		c := calls[part]
		if c == nil {
			c = getCall()
			c.isBatch = true
			c.results = bc.results
			calls[part] = c
		}
		c.batch = append(c.batch, ops[i])
		c.scatter = append(c.scatter, i)
	}
	for part, c := range calls {
		if c != nil {
			bc.calls = append(bc.calls, c)
			p.workers[part] <- c
		}
	}
	return bc
}

// Wait blocks until every partition's sub-batch completes and returns the
// results in submission order.
func (bc *BatchCall) Wait() []BatchResult {
	for _, c := range bc.calls {
		<-c.done
		putCall(c)
	}
	return bc.results
}

// journalOp logs one successfully applied mutation through the worker's
// journal, in apply order, before the call is acknowledged. A journal
// write failure never fails the client operation — the in-memory store is
// intact — but the log is now incomplete: it is detached and the
// partition flagged (JournalLost) so health reports it and auto-heal
// refuses to rebuild from a log missing acknowledged writes.
func journalOp(st *WorkerState, op *BatchOp) {
	if st.Journal == nil {
		return
	}
	if err := st.Journal.LogOp(st.Meter, op.Kind, op.Key, op.Value, op.Delta); err != nil {
		st.Journal = nil
		st.Store.noteJournalLost()
	}
}

// commitJournal runs the group-commit barrier for one drain: after the
// drain's mutations were journaled (journaled true), a GroupJournal's
// Commit must complete before any call is acknowledged. The returned
// error, if any, retracts the drain's mutations — applied locally, but
// the journal (e.g. the replication stream) cannot vouch for them.
func commitJournal(st *WorkerState, journaled bool) error {
	if !journaled || st.Journal == nil {
		return nil
	}
	gj, ok := st.Journal.(GroupJournal)
	if !ok {
		return nil
	}
	return gj.Commit(st.Meter)
}

// runDrain executes one worker wakeup's worth of calls. A lone single-op
// call goes through the per-op Store path (identical accounting to the
// seed); everything else is combined into one ApplyBatch, so the whole
// drain pays one request overhead and shares set verifies — the same
// amortization ApplyBatch gives explicit batches, now applied to
// concurrent single-op traffic. ops and rs are worker-local scratch,
// returned so grown backings are kept.
func runDrain(st *WorkerState, calls []*Call, ops []BatchOp, rs []BatchResult) ([]BatchOp, []BatchResult) {
	s, m := st.Store, st.Meter
	if len(calls) == 1 && !calls[0].isBatch {
		c := calls[0]
		r := s.Exec(m, c.op)
		c.val, c.num, c.err = r.Val, r.Num, r.Err
		if c.err == nil && c.op.Kind != BatchGet {
			journalOp(st, &c.op)
			if cerr := commitJournal(st, true); cerr != nil {
				c.err = cerr
			}
		}
		c.done <- struct{}{}
		return ops, rs
	}
	ops = ops[:0]
	for _, c := range calls {
		if c.isBatch {
			ops = append(ops, c.batch...)
		} else {
			ops = append(ops, c.op)
		}
	}
	if cap(rs) < len(ops) {
		rs = make([]BatchResult, len(ops))
	} else {
		rs = rs[:len(ops)]
		clear(rs)
	}
	s.ApplyBatchInto(m, ops, rs)
	journaled := false
	for i := range ops {
		if rs[i].Err == nil && ops[i].Kind != BatchGet {
			journalOp(st, &ops[i])
			journaled = true
		}
	}
	if cerr := commitJournal(st, journaled); cerr != nil {
		for i := range ops {
			if rs[i].Err == nil && ops[i].Kind != BatchGet {
				rs[i].Err = cerr
			}
		}
	}
	pos := 0
	for _, c := range calls {
		if c.isBatch {
			for j := range c.batch {
				c.results[c.scatter[j]] = rs[pos+j]
			}
			pos += len(c.batch)
		} else {
			c.val, c.num, c.err = rs[pos].Val, rs[pos].Num, rs[pos].Err
			pos++
		}
		c.done <- struct{}{}
	}
	clear(ops) // drop request-buffer refs before the scratch idles
	return ops[:0], rs
}
