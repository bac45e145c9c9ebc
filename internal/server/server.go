// Package server implements ShieldStore's networked front-end (§6.4): a
// TCP server whose connection handlers run "inside" the enclave, paying an
// enclave-boundary crossing (a full OCALL, or an exitless HotCall when
// enabled) plus kernel and NIC costs for every receive and send, and
// encrypting every request/response on the attested session channel.
//
// The same front-end can serve either the ShieldStore engine or one of the
// baseline engines, which is how the paper compares "Baseline+HotCalls"
// against "ShieldOpt+HotCalls" under identical network conditions.
package server

import (
	"errors"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"shieldstore/internal/baseline"
	"shieldstore/internal/core"
	"shieldstore/internal/proto"
	"shieldstore/internal/sgx"
	"shieldstore/internal/sim"
)

// Engine is the storage engine behind the front-end.
type Engine interface {
	Get(m *sim.Meter, key []byte) ([]byte, error)
	Set(m *sim.Meter, key, value []byte) error
	Delete(m *sim.Meter, key []byte) error
	Append(m *sim.Meter, key, suffix []byte) error
	Incr(m *sim.Meter, key []byte, delta int64) (int64, error)
}

// BatchEngine is an optional Engine extension: engines that can execute a
// heterogeneous batch natively (amortizing per-request and per-bucket-set
// costs) implement it; the front-end falls back to a per-op loop for the
// rest.
type BatchEngine interface {
	ExecBatch(m *sim.Meter, ops []core.BatchOp) []core.BatchResult
}

// AsyncEngine is an optional Engine extension: engines that can accept an
// operation and complete it later let the front-end's reader submit work
// and move on to decoding the next frame, so one connection's pipelined
// requests execute concurrently across partitions. The submitted
// key/value buffers must stay alive until the returned call is waited on.
type AsyncEngine interface {
	Submit(m *sim.Meter, kind core.BatchKind, key, value []byte, delta int64) *core.Call
	SubmitBatch(m *sim.Meter, ops []core.BatchOp) *core.BatchCall
}

// CoreEngine adapts core.Partitioned to Engine. The partitioned store's
// worker pool must be Started.
type CoreEngine struct{ P *core.Partitioned }

// ExecBatch implements BatchEngine: one worker round trip per involved
// partition, amortized integrity updates inside each.
func (e CoreEngine) ExecBatch(m *sim.Meter, ops []core.BatchOp) []core.BatchResult {
	return e.P.ExecBatch(m, ops)
}

// Submit implements AsyncEngine.
func (e CoreEngine) Submit(m *sim.Meter, kind core.BatchKind, key, value []byte, delta int64) *core.Call {
	return e.P.Submit(m, kind, key, value, delta)
}

// SubmitBatch implements AsyncEngine.
func (e CoreEngine) SubmitBatch(m *sim.Meter, ops []core.BatchOp) *core.BatchCall {
	return e.P.SubmitBatch(m, ops)
}

// Get implements Engine.
func (e CoreEngine) Get(m *sim.Meter, key []byte) ([]byte, error) { return e.P.Get(m, key) }

// Set implements Engine.
func (e CoreEngine) Set(m *sim.Meter, key, value []byte) error { return e.P.Set(m, key, value) }

// Delete implements Engine.
func (e CoreEngine) Delete(m *sim.Meter, key []byte) error { return e.P.Delete(m, key) }

// Append implements Engine.
func (e CoreEngine) Append(m *sim.Meter, key, suffix []byte) error { return e.P.Append(m, key, suffix) }

// Incr implements Engine.
func (e CoreEngine) Incr(m *sim.Meter, key []byte, delta int64) (int64, error) {
	return e.P.Incr(m, key, delta)
}

// BaselineEngine adapts baseline.Store to Engine.
type BaselineEngine struct{ S *baseline.Store }

// Get implements Engine.
func (e BaselineEngine) Get(m *sim.Meter, key []byte) ([]byte, error) { return e.S.Get(m, key) }

// Set implements Engine.
func (e BaselineEngine) Set(m *sim.Meter, key, value []byte) error { return e.S.Set(m, key, value) }

// Delete implements Engine.
func (e BaselineEngine) Delete(m *sim.Meter, key []byte) error { return e.S.Delete(m, key) }

// Append implements Engine.
func (e BaselineEngine) Append(m *sim.Meter, key, suffix []byte) error {
	return e.S.Append(m, key, suffix)
}

// Incr implements Engine. The baseline stores have no increment, so it
// always fails.
func (e BaselineEngine) Incr(m *sim.Meter, key []byte, delta int64) (int64, error) {
	return 0, errors.New("baseline: incr unsupported")
}

// Config parameterizes the front-end.
type Config struct {
	Engine  Engine
	Enclave *sgx.Enclave
	// HotCalls switches socket syscalls from full OCALLs to exitless
	// HotCalls (§6.4).
	HotCalls bool
	// Secure enables the attested encrypted channel; when false the §6.4
	// no-network-security ablation runs plaintext frames.
	Secure bool
	// Insecure engines (NoSGX rows) skip enclave boundary costs entirely.
	NoSGX bool
	// Logf sinks error logs (default log.Printf).
	Logf func(format string, args ...any)
	// Stats, when set, answers CmdStats with "name=value" lines.
	Stats func() []string
	// Health, when set, answers CmdHealth with per-partition health lines
	// (core.FormatHealth output: state, scrub progress, journal status).
	Health func() []string
	// Replicate, when set, answers CmdReplicate: it receives one payload
	// of replication frames and returns the acked watermark plus a wire
	// status (repl.Applier.Apply). Unset, the command is rejected — an
	// ordinary primary does not accept replication streams.
	Replicate func(m *sim.Meter, payload []byte) (watermark uint64, status uint8)
	// Promote, when set, answers CmdPromote: adopt the given fencing epoch
	// and start accepting writes (repl.Applier.Promote). Returns the
	// node's resulting epoch and a wire status.
	Promote func(epoch uint64) (resultEpoch uint64, status uint8)
	// Attach, when set, answers CmdReplAttach: (re)target this node's
	// replication stream at the given replica address and bootstrap it
	// (repl.Node.Attach) — the control plane's re-protection hook. Unset,
	// the command is rejected.
	Attach func(addr string) uint8
	// Writable, when set, gates every mutation command: when it reports
	// false the mutation is rejected with StatusFenced without touching
	// the engine. Replicas before promotion and fenced old primaries are
	// not writable; reads are always served.
	Writable func() bool
	// PipelineDepth bounds how many requests per connection may be in
	// flight between the reader and the in-order writer (default 32).
	PipelineDepth int
	// WriteBuffer sizes the per-connection coalescing write buffer in
	// bytes (default 32 KiB).
	WriteBuffer int

	// IdleTimeout bounds how long a connection may sit between requests
	// (waiting for the next frame header, or for the handshake) before
	// the server closes it. 0 means no limit.
	IdleTimeout time.Duration
	// ReadTimeout bounds reading one frame's payload once its header has
	// arrived, so a byte-dripping client cannot hold a reader goroutine
	// hostage. 0 means no limit.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write/flush; a client that stops
	// reading is disconnected rather than wedging the writer. 0 means no
	// limit.
	WriteTimeout time.Duration
	// MaxConns caps concurrent connections; accepts beyond the cap are
	// closed immediately, shielding established clients from a
	// connection flood. 0 means unlimited.
	MaxConns int
	// DrainTimeout bounds how long Close waits for in-flight connections
	// before force-closing them. 0 means wait indefinitely.
	DrainTimeout time.Duration
}

// Server is a running front-end.
type Server struct {
	cfg Config
	ln  net.Listener
	wg  sync.WaitGroup

	mu         sync.Mutex
	meters     []*sim.Meter // live connections (reader + writer meters)
	conns      map[net.Conn]struct{}
	retired    *sim.Meter // accumulated counters of closed connections
	retiredMax uint64     // slowest closed connection's cycles
	rejected   uint64     // accepts refused by the MaxConns cap
	closed     bool
}

// Serve starts accepting connections on ln. It returns immediately; Close
// shuts the server down.
//
//ss:host(listener setup on the real transport; per-frame crossings are charged in chargeNet)
func Serve(ln net.Listener, cfg Config) *Server {
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	s := &Server{
		cfg:     cfg,
		ln:      ln,
		conns:   make(map[net.Conn]struct{}),
		retired: sim.NewMeter(cfg.Enclave.Model()),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listen address.
//
//ss:host(transport introspection, no enclave involvement)
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting and waits for handlers to drain. With
// DrainTimeout set the wait is bounded: connections still alive when it
// expires are force-closed, so one wedged client cannot make shutdown
// hang.
//
//ss:host(shutdown path, outside the measured window)
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.ln.Close()
	if d := s.cfg.DrainTimeout; d > 0 {
		done := make(chan struct{})
		go func() { s.wg.Wait(); close(done) }()
		select {
		case <-done:
			return
		case <-time.After(d):
			s.mu.Lock()
			for c := range s.conns {
				c.Close()
			}
			s.mu.Unlock()
		}
	}
	s.wg.Wait()
}

// LiveConns reports how many connections are currently being served.
func (s *Server) LiveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Rejected reports how many accepts the MaxConns cap refused.
func (s *Server) Rejected() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rejected
}

// NetworkStats aggregates the connection handlers' meters — live and
// retired — (front-end costs only; engine costs live in the engine's own
// meters).
func (s *Server) NetworkStats() sim.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	agg := sim.NewMeter(s.cfg.Enclave.Model())
	agg.Add(s.retired)
	maxC := s.retiredMax
	for _, m := range s.meters {
		agg.Add(m)
		if m.Cycles() > maxC {
			maxC = m.Cycles()
		}
	}
	st := agg.Snapshot()
	st.Cycles = maxC
	return st
}

// addMeters registers a connection's meters while it is live.
func (s *Server) addMeters(ms ...*sim.Meter) {
	s.mu.Lock()
	s.meters = append(s.meters, ms...)
	s.mu.Unlock()
}

// retire folds a closed connection's meters into the retired-stats
// accumulator, so Server.meters only ever holds live connections instead
// of growing by one meter per connection forever.
func (s *Server) retire(ms ...*sim.Meter) {
	s.mu.Lock()
	for _, m := range ms {
		for i, x := range s.meters {
			if x == m {
				last := len(s.meters) - 1
				s.meters[i] = s.meters[last]
				s.meters[last] = nil
				s.meters = s.meters[:last]
				break
			}
		}
		s.retired.Add(m)
		if m.Cycles() > s.retiredMax {
			s.retiredMax = m.Cycles()
		}
	}
	s.mu.Unlock()
}

// acceptLoop runs on the untrusted front-end thread; accepting a socket
// involves no enclave work, which begins per frame inside handle.
//
//ss:host(untrusted accept thread; enclave costs start per frame in handle)
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	backoff := time.Millisecond
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || isClosed(err) {
				return
			}
			// Transient failure (EMFILE, ECONNABORTED, ...): back off
			// briefly and keep accepting rather than killing the server.
			s.cfg.Logf("shieldstore server: accept: %v (retrying in %v)", err, backoff)
			time.Sleep(backoff)
			if backoff < 100*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		backoff = time.Millisecond
		s.mu.Lock()
		if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
			// Over the cap: shed this connection instead of degrading the
			// ones already established.
			s.rejected++
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		// One meter per direction: the reader and writer goroutines run
		// concurrently and sim.Meter is single-owner.
		rm := sim.NewMeter(s.cfg.Enclave.Model())
		wm := sim.NewMeter(s.cfg.Enclave.Model())
		s.addMeters(rm, wm)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			err := s.handle(conn, rm, wm)
			s.retire(rm, wm)
			if err != nil && !errors.Is(err, io.EOF) && !isClosed(err) {
				s.cfg.Logf("shieldstore server: conn: %v", err)
			}
		}()
	}
}

func isClosed(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

// handle serves one connection: a reader goroutine (this one) decodes
// and submits requests, a writer goroutine resolves and responds in
// order. rm and wm meter the two directions separately.
//
//ss:attacker — every byte on the socket is adversary-controlled.
//ss:host(deadline management on the real socket; frame crossings are charged in connReader/connWriter)
func (s *Server) handle(conn net.Conn, rm, wm *sim.Meter) error {
	e := s.cfg.Enclave
	model := e.Model()

	var ch *proto.Channel
	if s.cfg.Secure {
		// The handshake runs under the idle deadline: a client that
		// connects and never completes it is shed like any idle one.
		if t := s.handshakeTimeout(); t > 0 {
			conn.SetDeadline(time.Now().Add(t))
		}
		var err error
		ch, err = proto.ServerHandshake(conn, e, drbg{e})
		if err != nil {
			return err
		}
		conn.SetDeadline(time.Time{}) // per-frame deadlines take over
		// Handshake: two messages + asymmetric crypto (modeled as a few
		// symmetric-op equivalents; session setup is off the hot path).
		s.chargeNet(rm, 48)
		s.chargeNet(rm, 96)
		rm.Charge(model.AES(2048))
	}

	depth := s.cfg.PipelineDepth
	if depth <= 0 {
		depth = defaultPipelineDepth
	}
	wq := make(chan *pending, depth)
	wdone := make(chan error, 1)
	go func() { wdone <- s.connWriter(conn, ch, wq, wm) }()

	rerr := s.connReader(conn, ch, wq, rm)
	close(wq)
	werr := <-wdone
	if werr != nil {
		// A write failure is the root cause; the reader's error is just
		// the closed-connection fallout.
		return werr
	}
	return rerr
}

// handshakeTimeout picks the deadline for session setup: the idle
// timeout when configured, else the read timeout.
func (s *Server) handshakeTimeout() time.Duration {
	if s.cfg.IdleTimeout > 0 {
		return s.cfg.IdleTimeout
	}
	return s.cfg.ReadTimeout
}

// chargeNet accounts one message's network path: kernel socket call
// (through the enclave boundary unless NoSGX) plus NIC/wire costs.
//
//ss:ocall
func (s *Server) chargeNet(m *sim.Meter, n int) {
	model := s.cfg.Enclave.Model()
	if s.cfg.NoSGX {
		m.Charge(model.Syscall)
		m.Count(sim.CtrSyscall)
	} else {
		s.cfg.Enclave.Syscall(m, s.cfg.HotCalls)
	}
	m.Charge(model.NIC(n))
	m.Count(sim.CtrNetMessage)
}

// control answers the requests that carry no key-value work: Ping, the
// Stats and Health listings, the replication hooks, and unknown commands.
func (s *Server) control(m *sim.Meter, req *proto.Request) proto.Response {
	switch req.Cmd {
	case proto.CmdPing:
		return proto.Response{Status: proto.StatusOK}
	case proto.CmdReplicate:
		if s.cfg.Replicate == nil {
			// Not a replica: nobody wired an applier here.
			return proto.Response{Status: proto.StatusError}
		}
		wm, st := s.cfg.Replicate(m, req.Value)
		return proto.Response{Status: st, Num: int64(wm)}
	case proto.CmdPromote:
		if s.cfg.Promote == nil {
			return proto.Response{Status: proto.StatusError}
		}
		ep, st := s.cfg.Promote(uint64(req.Delta))
		return proto.Response{Status: st, Num: int64(ep)}
	case proto.CmdReplAttach:
		if s.cfg.Attach == nil {
			// Not a replicated deployment: no role manager wired here.
			return proto.Response{Status: proto.StatusError}
		}
		return proto.Response{Status: s.cfg.Attach(string(req.Key))}
	case proto.CmdStats:
		return listResponse(s.cfg.Stats)
	case proto.CmdHealth:
		return listResponse(s.cfg.Health)
	default:
		return proto.Response{Status: proto.StatusError}
	}
}

// listResponse renders a Stats or Health hook's lines as a list payload;
// an unset hook answers an empty list.
func listResponse(hook func() []string) proto.Response {
	var items [][]byte
	if hook != nil {
		for _, l := range hook() {
			items = append(items, []byte(l))
		}
	}
	return proto.Response{Status: proto.StatusOK, Value: proto.EncodeList(items)}
}

// fence applies the Writable gate to a data request's ops; it is the only
// place the gate is consulted. A node that admits no mutations (a replica
// before promotion, a fenced old primary) still serves reads: fence then
// returns just the reads, in order, for the engine, and reports fenced so
// every withheld op is answered StatusFenced.
func (s *Server) fence(ops []core.BatchOp) (run []core.BatchOp, fenced bool) {
	for i := range ops {
		if ops[i].Kind == core.BatchGet {
			continue
		}
		if s.cfg.Writable == nil || s.cfg.Writable() {
			return ops, false
		}
		for j := range ops {
			if ops[j].Kind == core.BatchGet {
				run = append(run, ops[j])
			}
		}
		return run, true
	}
	return ops, false
}

// batchKind maps a wire command to a core batch kind; unknown commands map
// to an invalid kind that the engine rejects per-op with ErrBadBatchOp.
func batchKind(c proto.Command) core.BatchKind {
	switch c {
	case proto.CmdGet:
		return core.BatchGet
	case proto.CmdSet:
		return core.BatchSet
	case proto.CmdDelete:
		return core.BatchDelete
	case proto.CmdAppend:
		return core.BatchAppend
	case proto.CmdIncr:
		return core.BatchIncr
	default:
		return core.BatchKind(0xFF)
	}
}

// execOp runs one op through a synchronous engine's per-op methods. It is
// the front-end's one per-kind switch: single requests on synchronous
// engines call it directly and fallbackBatch loops over it.
func execOp(m *sim.Meter, eng Engine, op *core.BatchOp) (r core.BatchResult) {
	switch op.Kind {
	case core.BatchGet:
		r.Val, r.Err = eng.Get(m, op.Key)
	case core.BatchSet:
		r.Err = eng.Set(m, op.Key, op.Value)
	case core.BatchDelete:
		r.Err = eng.Delete(m, op.Key)
	case core.BatchAppend:
		r.Err = eng.Append(m, op.Key, op.Value)
	case core.BatchIncr:
		r.Num, r.Err = eng.Incr(m, op.Key, op.Delta)
	default:
		r.Err = core.ErrBadBatchOp
	}
	return r
}

// fallbackBatch runs a batch op-by-op for engines without native batch
// support (baselines): same semantics, none of the amortization.
func fallbackBatch(m *sim.Meter, eng Engine, ops []core.BatchOp) []core.BatchResult {
	rs := make([]core.BatchResult, len(ops))
	for i := range ops {
		rs[i] = execOp(m, eng, &ops[i])
	}
	return rs
}

// statusFor maps an engine error to a wire status.
func statusFor(err error) uint8 {
	switch {
	case err == nil:
		return proto.StatusOK
	case errors.Is(err, core.ErrNotFound), errors.Is(err, baseline.ErrNotFound):
		return proto.StatusNotFound
	case errors.Is(err, core.ErrRebuilding):
		// Before the terminal integrity mapping: a rebuilding partition is
		// quarantined too, but the client should retry, not give up.
		return proto.StatusRebuilding
	case errors.Is(err, core.ErrUnhealable):
		// Also quarantined, but nobody is coming: the client should fail
		// over, not retry.
		return proto.StatusUnhealable
	case errors.Is(err, core.ErrFenced):
		return proto.StatusFenced
	case errors.Is(err, core.ErrIntegrity), errors.Is(err, core.ErrCorruptPointer),
		errors.Is(err, core.ErrQuarantined):
		return proto.StatusIntegrityViolation
	default:
		return proto.StatusError
	}
}

// drbg adapts the enclave DRBG to io.Reader for handshake entropy.
type drbg struct{ e *sgx.Enclave }

func (d drbg) Read(p []byte) (int, error) {
	d.e.ReadRand(nil, p)
	return len(p), nil
}
