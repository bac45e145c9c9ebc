// Pipelined connection handling: each connection is served by a
// decode/submit reader and an in-order writer goroutine joined by a
// bounded response queue. The reader decodes frames into pooled buffers
// and submits operations to the engine's partition workers without
// waiting, so a client's pipelined frames execute concurrently across
// partitions (engines without Submit execute inline on the reader, on the
// same request path); the writer resolves each request in submission order,
// which keeps responses (and the channel's nonce sequence) ordered no
// matter how execution interleaved. Writes coalesce in a bufio.Writer
// that flushes when the queue runs dry, so a burst of responses shares
// one syscall. See DESIGN.md §9 "Exitless dispatch".
package server

import (
	"bufio"
	"net"
	"sync"
	"time"

	"shieldstore/internal/core"
	"shieldstore/internal/proto"
	"shieldstore/internal/sim"
)

// Defaults for Config.PipelineDepth and Config.WriteBuffer.
const (
	defaultPipelineDepth = 32
	defaultWriteBuffer   = 32 << 10
)

// pending is one request travelling from the reader to the writer. A
// control command or malformed request leaves cmd zero and its answer in
// resp. A data command sets cmd and ops, and its engine result is either
// in flight (call or bcall, async engines) or already in rs (inline
// execution, or nothing left to run after the fence). The frame buffer
// is held until the writer resolves the request: ops reference the
// frame's bytes (zero-copy key/value views), so it must not be recycled
// earlier.
type pending struct {
	fp     *[]byte             // pooled frame buffer backing the request views
	cmd    proto.Command       // data command (drives response mapping); 0 for resp
	ops    []core.BatchOp      // the request's ops (kinds drive result mapping)
	fenced bool                // Writable refused: only ops' reads reached the engine
	call   *core.Call          // in-flight single op (async engines)
	bcall  *core.BatchCall     // in-flight batch / MGet (async engines)
	rs     []core.BatchResult  // results of the ops that reached the engine
	op     [1]core.BatchOp     // backing for a single command's ops
	res    [1]core.BatchResult // backing for a single command's rs
	resp   proto.Response      // answer to a control command or malformed request
}

var pendingPool = sync.Pool{New: func() any { return new(pending) }}

// framePool recycles per-request frame buffers. Holding *[]byte keeps
// Put allocation-free; the pooled capacity grows to the workload's frame
// size.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// connReader reads, decrypts and decodes frames, hands each request to
// the engine (asynchronously when it supports Submit, inline otherwise),
// and enqueues the slot on the bounded writer queue — the queue's
// capacity is the connection's pipeline depth, and enqueueing is the only
// place the reader blocks on the writer.
//
//ss:ecall
//ss:attacker — frames arrive from the adversary-controlled socket.
func (s *Server) connReader(conn net.Conn, ch *proto.Channel, wq chan<- *pending, m *sim.Meter) error {
	model := s.cfg.Enclave.Model()
	ae, _ := s.cfg.Engine.(AsyncEngine)
	var req proto.Request
	for {
		// Waiting for the next request runs under the idle deadline;
		// once a frame header arrives, the payload must follow within the
		// (typically much shorter) read deadline — a client dribbling one
		// byte at a time cannot pin this goroutine.
		if t := s.cfg.IdleTimeout; t > 0 {
			conn.SetReadDeadline(time.Now().Add(t))
		}
		n, err := proto.ReadFrameHeader(conn)
		if err != nil {
			return err
		}
		if t := s.cfg.ReadTimeout; t > 0 {
			conn.SetReadDeadline(time.Now().Add(t))
		}
		fp := framePool.Get().(*[]byte)
		frame, err := proto.ReadFramePayloadInto(conn, n, (*fp)[:0])
		if err != nil {
			framePool.Put(fp)
			return err
		}
		*fp = frame
		s.chargeNet(m, len(frame))
		payload := frame
		if ch != nil {
			payload, err = ch.OpenInPlace(frame)
			if err != nil {
				framePool.Put(fp)
				return err
			}
			m.Charge(model.AES(len(frame)) + model.CMAC(len(frame)))
		}
		pd := pendingPool.Get().(*pending)
		pd.fp = fp
		s.dispatch(pd, ae, m, payload, &req)
		wq <- pd
	}
}

// dispatch decodes one request payload into pd. Control commands and
// malformed requests are answered on the spot. A data command becomes
// core batch ops, passes the Writable fence, and is then either submitted
// to an async engine or executed inline on this reader goroutine — the
// only point where the two kinds of engine differ.
func (s *Server) dispatch(pd *pending, ae AsyncEngine, m *sim.Meter, payload []byte, req *proto.Request) {
	if err := proto.DecodeRequestInto(req, payload); err != nil {
		pd.resp = proto.Response{Status: proto.StatusError}
		return
	}
	var ops []core.BatchOp
	switch req.Cmd {
	case proto.CmdGet, proto.CmdSet, proto.CmdDelete, proto.CmdAppend, proto.CmdIncr:
		op := &pd.op[0]
		*op = core.BatchOp{Kind: batchKind(req.Cmd), Key: req.Key}
		// Only the fields the command uses: a stray value sent with a
		// Delete must not reach the engine's journal.
		switch op.Kind {
		case core.BatchSet, core.BatchAppend:
			op.Value = req.Value
		case core.BatchIncr:
			op.Delta = req.Delta
		}
		ops = pd.op[:]
	case proto.CmdMGet:
		// MGet rides the batch path: grouped per partition, so a 32-key
		// MGet costs at most Parts() worker round trips instead of 32.
		keys, err := proto.DecodeList(req.Value)
		if err != nil {
			pd.resp = proto.Response{Status: proto.StatusError}
			return
		}
		ops = make([]core.BatchOp, len(keys))
		for i, k := range keys {
			ops[i] = core.BatchOp{Kind: core.BatchGet, Key: k}
		}
	case proto.CmdBatch:
		wireOps, err := proto.DecodeBatchView(req.Value)
		if err != nil {
			pd.resp = proto.Response{Status: proto.StatusError}
			return
		}
		ops = make([]core.BatchOp, len(wireOps))
		for i := range wireOps {
			ops[i] = core.BatchOp{
				Kind:  batchKind(wireOps[i].Cmd),
				Key:   wireOps[i].Key,
				Value: wireOps[i].Value,
				Delta: wireOps[i].Delta,
			}
		}
	default:
		pd.resp = s.control(m, req)
		return
	}
	pd.cmd, pd.ops = req.Cmd, ops
	run, fenced := s.fence(ops)
	pd.fenced = fenced
	single := req.Cmd != proto.CmdMGet && req.Cmd != proto.CmdBatch
	switch {
	case len(run) == 0:
		// Nothing reaches the engine: an empty list, or every op fenced.
	case single && ae != nil:
		pd.call = ae.Submit(m, run[0].Kind, run[0].Key, run[0].Value, run[0].Delta)
	case single:
		pd.res[0] = execOp(m, s.cfg.Engine, &run[0])
		pd.rs = pd.res[:]
	case ae != nil:
		pd.bcall = ae.SubmitBatch(m, run)
	default:
		if be, ok := s.cfg.Engine.(BatchEngine); ok {
			pd.rs = be.ExecBatch(m, run)
		} else {
			pd.rs = fallbackBatch(m, s.cfg.Engine, run)
		}
	}
}

// writerScratch is the writer's reused encode state: response bytes,
// sealed frame, and the batch sub-payload buffers.
type writerScratch struct {
	enc    []byte
	sealed []byte
	sub    []byte
	prs    []proto.BatchResult
	vals   [][]byte
}

// connWriter resolves queued requests in submission order and writes
// their responses. After a write error it keeps draining the queue —
// every in-flight call must still be waited on — but stops writing and
// closes the connection so the reader unblocks.
//
//ss:ocall
func (s *Server) connWriter(conn net.Conn, ch *proto.Channel, wq <-chan *pending, m *sim.Meter) error {
	model := s.cfg.Enclave.Model()
	size := s.cfg.WriteBuffer
	if size <= 0 {
		size = defaultWriteBuffer
	}
	bw := bufio.NewWriterSize(conn, size)
	var sc writerScratch
	var werr error
	for pd := range wq {
		resp := resolvePending(pd, &sc)
		if werr == nil {
			out := proto.AppendResponse(sc.enc[:0], &resp)
			sc.enc = out
			wire := out
			if ch != nil {
				m.Charge(model.AES(len(out)) + model.CMAC(len(out)))
				sc.sealed = ch.SealTo(sc.sealed[:0], out)
				wire = sc.sealed
			}
			s.chargeNet(m, len(wire))
			if t := s.cfg.WriteTimeout; t > 0 {
				conn.SetWriteDeadline(time.Now().Add(t))
			}
			if err := proto.WriteFrame(bw, wire); err != nil {
				werr = err
			} else if len(wq) == 0 {
				// Queue ran dry: everything buffered shares this flush.
				werr = bw.Flush()
			}
			if werr != nil {
				conn.Close() // unblock the reader
			}
		}
		releasePending(pd)
	}
	if werr == nil {
		if t := s.cfg.WriteTimeout; t > 0 {
			conn.SetWriteDeadline(time.Now().Add(t))
		}
		werr = bw.Flush()
	}
	return werr
}

// resolvePending waits for pd's engine work when it was submitted
// asynchronously, then maps the results through the one function for the
// request's response shape, however they were obtained. Values in the
// returned response may alias the writer's scratch; they are consumed
// (encoded) before the next pending resolves.
func resolvePending(pd *pending, sc *writerScratch) proto.Response {
	if pd.cmd == 0 {
		return pd.resp
	}
	switch {
	case pd.call != nil:
		r := &pd.res[0]
		r.Val, r.Num, r.Err = pd.call.Wait()
		pd.call = nil
		pd.rs = pd.res[:]
	case pd.bcall != nil:
		pd.rs = pd.bcall.Wait()
		pd.bcall = nil
	}
	if pd.fenced {
		pd.rs = unfence(pd.ops, pd.rs)
	}
	switch pd.cmd {
	case proto.CmdMGet:
		return mgetResponse(pd.rs, sc)
	case proto.CmdBatch:
		return batchResponse(pd.ops, pd.rs, sc)
	default:
		return opResponse(pd.cmd, &pd.rs[0])
	}
}

// unfence spreads the results of a fenced request's reads back over all
// of its ops; every op the fence withheld answers ErrFenced.
func unfence(ops []core.BatchOp, reads []core.BatchResult) []core.BatchResult {
	rs := make([]core.BatchResult, len(ops))
	j := 0
	for i := range ops {
		if ops[i].Kind != core.BatchGet {
			rs[i].Err = core.ErrFenced
			continue
		}
		rs[i] = reads[j]
		j++
	}
	return rs
}

// opResponse maps a single-op result to its response: the value for a
// Get, the number for an Incr.
func opResponse(cmd proto.Command, r *core.BatchResult) proto.Response {
	if r.Err != nil {
		return proto.Response{Status: statusFor(r.Err)}
	}
	resp := proto.Response{Status: proto.StatusOK}
	switch cmd {
	case proto.CmdGet:
		resp.Value = r.Val
	case proto.CmdIncr:
		resp.Num = r.Num
	}
	return resp
}

// mgetResponse maps per-key batch results to the MGet list payload:
// misses become nil entries, any other error fails the whole MGet (the
// seed's semantics).
func mgetResponse(rs []core.BatchResult, sc *writerScratch) proto.Response {
	sc.vals = sc.vals[:0]
	for i := range rs {
		switch statusFor(rs[i].Err) {
		case proto.StatusOK:
			v := rs[i].Val
			if v == nil {
				v = []byte{}
			}
			sc.vals = append(sc.vals, v)
		case proto.StatusNotFound:
			sc.vals = append(sc.vals, nil)
		default:
			return proto.Response{Status: statusFor(rs[i].Err)}
		}
	}
	sc.sub = proto.AppendList(sc.sub[:0], sc.vals)
	return proto.Response{Status: proto.StatusOK, Value: sc.sub}
}

// batchResponse maps core batch results to the wire result vector, with
// per-op statuses: one miss never fails the rest.
func batchResponse(ops []core.BatchOp, rs []core.BatchResult, sc *writerScratch) proto.Response {
	sc.prs = sc.prs[:0]
	for i := range rs {
		pr := proto.BatchResult{Status: statusFor(rs[i].Err)}
		if rs[i].Err == nil {
			pr.Num = rs[i].Num
			if ops[i].Kind == core.BatchGet {
				pr.Value = rs[i].Val
				if pr.Value == nil {
					pr.Value = []byte{}
				}
			}
		}
		sc.prs = append(sc.prs, pr)
	}
	sc.sub = proto.AppendBatchResults(sc.sub[:0], sc.prs)
	return proto.Response{Status: proto.StatusOK, Value: sc.sub}
}

// releasePending recycles the slot and its frame buffer. Only called
// after the request is fully resolved — nothing references the frame's
// bytes past this point.
func releasePending(pd *pending) {
	if pd.fp != nil {
		framePool.Put(pd.fp)
	}
	*pd = pending{}
	pendingPool.Put(pd)
}
