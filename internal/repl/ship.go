// The primary side of replication: the Shipper tees every journaled
// mutation into a pending run, seals each group commit's run as one
// MAC-chained frame and ships the stream to the replica inside the worker
// pool's group commit — before any client acknowledgement — so a client
// ack always implies a replica ack.
package repl

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"shieldstore/internal/client"
	"shieldstore/internal/core"
	"shieldstore/internal/fault"
	"shieldstore/internal/proto"
	"shieldstore/internal/sgx"
	"shieldstore/internal/sim"
)

// ShipperOptions configures a primary's replication stream.
type ShipperOptions struct {
	// Addr is the replica endpoint frames ship to.
	Addr string
	// Link are the dial options for the replication connection. The frames
	// themselves are sealed and MAC-chained, so the link may run without
	// channel encryption; Secure adds attestation of the replica.
	Link client.Options
	// Epoch is the fencing epoch stamped on every frame (default 1). A
	// replica promoted past this epoch rejects the stream with
	// StatusFenced and the shipper latches Fenced.
	Epoch uint64
	// MaxBuffer bounds how many frames may sit unacked while the replica
	// link is down (default 65536). A frame is one group commit's worth of
	// records (at most maxRunBytes of them). Overflow abandons the
	// buffered tail and schedules a full bootstrap instead — acked writes
	// are still safe on the primary; the replica just re-syncs from a
	// snapshot.
	MaxBuffer int
	// MaxBatchBytes bounds one CmdReplicate payload (default 1 MiB).
	MaxBatchBytes int
	// Backoff / MaxBackoff bound the link-redial backoff window
	// (defaults 5ms / 1s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Faults, when set, arms the flaky-link injection points
	// (PointReplDrop/Dup/Reorder) against outgoing payloads.
	Faults *fault.Plane
	// Logf receives background shipping failures (no caller to return to).
	Logf func(format string, args ...any)
}

// maxRunBytes is the size at which a pending run is sealed before its
// commit, bounding one frame — and the replica's apply batch — well under
// MaxBatchBytes.
const maxRunBytes = 64 << 10

// shipFrame is one encoded, unacked frame in the shipper's buffer.
type shipFrame struct {
	seq  uint64
	data []byte
}

// Shipper is the primary-side replication engine. Create one per shard
// (NewShipper), wrap every partition journal with Tee (or
// persist.HealerOptions.WrapJournal), Start it, and the worker pool's
// group commit does the rest: append to the pending run on journal, seal
// it and flush+ack on Commit.
//
// All mutable state is under mu; partition workers (logOp/Commit) and
// the bootstrap goroutine serialize on it. Commit holds mu across the
// network flush — the price of the group-commit guarantee — so a wedged
// replica link stalls that partition's acknowledgements rather than
// acking writes the replica never saw.
type Shipper struct {
	p       *core.Partitioned
	enclave *sgx.Enclave
	opts    ShipperOptions
	meter   *sim.Meter // bootstrap/background costs: not request cost

	mu    sync.Mutex
	chain *chainState
	seq   uint64 // last assigned frame sequence
	acked uint64 // replica's durable watermark
	buf   []shipFrame
	// pending is the open run: records logged since the last seal, from
	// every partition, in log order. A record logged through a journal
	// detached mid-drain still ships with the next commit on any
	// partition.
	pending []byte

	conn      *client.Client
	down      bool
	downUntil time.Time
	backoff   time.Duration
	rng       *rand.Rand

	fenced         bool
	needsBootstrap bool
	bootstrapping  bool
	closed         bool

	bootWake chan struct{}
	quit     chan struct{}
	done     chan struct{}
}

// NewShipper builds a shipper for pool p targeting opts.Addr. Wire the
// tees (Tee / WrapJournal) before the pool starts, then call Start.
func NewShipper(p *core.Partitioned, opts ShipperOptions) *Shipper {
	if opts.Epoch == 0 {
		opts.Epoch = 1
	}
	if opts.MaxBuffer == 0 {
		opts.MaxBuffer = 1 << 16
	}
	if opts.MaxBatchBytes == 0 {
		opts.MaxBatchBytes = 1 << 20
	}
	if opts.Backoff == 0 {
		opts.Backoff = 5 * time.Millisecond
	}
	if opts.MaxBackoff == 0 {
		opts.MaxBackoff = time.Second
	}
	return &Shipper{
		p:        p,
		enclave:  p.Enclave(),
		opts:     opts,
		meter:    sim.NewMeter(p.Enclave().Model()),
		chain:    newChain(p.Enclave()),
		rng:      rand.New(rand.NewSource(1)),
		bootWake: make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the bootstrap worker. Call after Partitioned.Start.
func (s *Shipper) Start() { go s.bootstrapLoop() }

// Close stops the bootstrap worker and drops the link. Buffered frames
// are abandoned (the replica re-syncs from whoever ships next). Call
// before Partitioned.Stop — the bootstrap worker uses RunCtl.
func (s *Shipper) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	<-s.done
	s.mu.Lock()
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	s.chain.release()
	s.mu.Unlock()
}

// Tee wraps a partition's journal so every logged mutation is also
// appended to the replication run, and the worker's group commit seals,
// flushes and waits for the replica's ack. inner may be nil (replication
// without local durability). part is unused: the run is shared by every
// partition.
func (s *Shipper) Tee(part int, inner core.Journal) core.GroupJournal {
	return &tee{s: s, inner: inner}
}

// tee is the per-partition core.GroupJournal adapter.
type tee struct {
	s     *Shipper
	inner core.Journal
}

// LogOp appends the mutation to the pending run, then forwards to the
// wrapped journal. The record is appended first — it cannot fail — so
// even when the local WAL dies (and the partition flags JournalLost) the
// mutation still reaches the replica this shard will fail over to.
func (t *tee) LogOp(m *sim.Meter, kind core.BatchKind, key, value []byte, delta int64) error {
	t.s.logOp(m, core.BatchOp{Kind: kind, Key: key, Value: value, Delta: delta})
	if t.inner == nil {
		return nil
	}
	return t.inner.LogOp(m, kind, key, value, delta)
}

// Commit is the group-commit barrier: seal the pending run, flush every
// buffered frame and return only once the replica acked them (or the
// failure was absorbed into a buffered/bootstrap state that keeps the
// single-failure guarantee). A Fenced shipper fails the commit — the
// mutations of this drain are retracted, because a promoted replica will
// never count them.
func (t *tee) Commit(m *sim.Meter) error { return t.s.commit(m) }

// logOp appends op to the pending run, sealing the run early once it
// reaches maxRunBytes.
func (s *Shipper) logOp(m *sim.Meter, op core.BatchOp) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.fenced {
		return
	}
	s.pending = core.AppendMutationRun(s.pending, op)
	if len(s.pending) >= maxRunBytes {
		s.sealLocked(m)
	}
}

// sealLocked assigns the next sequence number, seals and chain-signs the
// pending run as one frame, and appends it to the unacked buffer. An
// empty run seals nothing: that frame would be a reset. Caller holds mu.
func (s *Shipper) sealLocked(m *sim.Meter) {
	if len(s.pending) == 0 {
		return
	}
	// While the link is down and no bootstrap is running, a full buffer
	// tips over into bootstrap mode: drop the tail, re-sync from snapshot.
	if s.down && !s.bootstrapping && !s.needsBootstrap && len(s.buf) >= s.opts.MaxBuffer {
		s.buf = s.buf[:0]
		s.needsBootstrap = true
		s.wake()
		s.logf("repl: unacked buffer overflow, scheduling bootstrap")
	}
	s.seq++
	s.buf = append(s.buf, shipFrame{seq: s.seq, data: encodeFrame(m, s.enclave, s.chain, s.seq, s.opts.Epoch, s.pending)})
	s.pending = s.pending[:0]
}

// commit implements the group-commit barrier (see tee.Commit).
func (s *Shipper) commit(m *sim.Meter) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if s.fenced {
		return core.ErrFenced
	}
	s.sealLocked(m)
	if s.needsBootstrap || s.bootstrapping {
		s.wake()
		return nil
	}
	if s.down && time.Now().Before(s.downUntil) {
		return nil // buffering through the outage
	}
	return s.flushLocked(m)
}

// wake pokes the bootstrap worker (non-blocking; the channel latches).
func (s *Shipper) wake() {
	select {
	case s.bootWake <- struct{}{}:
	default:
	}
}

func (s *Shipper) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// flushLocked ships the unacked buffer in MaxBatchBytes chunks until it
// drains or the link degrades. Caller holds mu. Transport failures and
// re-syncable server states return nil (the frames stay buffered or a
// bootstrap is scheduled); only fencing is a hard error.
//
//ss:ocall — shipping crosses the enclave boundary per payload.
func (s *Shipper) flushLocked(m *sim.Meter) error {
	gapRetries := 0
	for len(s.buf) > 0 {
		if s.conn == nil && !s.redialLocked() {
			return nil
		}
		payload := s.buildPayload()
		s.enclave.Syscall(m, true)
		m.Charge(s.enclave.Model().NIC(len(payload)))
		m.Count(sim.CtrNetMessage)
		status, watermark, err := s.conn.Replicate(payload)
		if err != nil {
			s.conn.Close()
			s.conn = nil
			s.markDown()
			s.logf("repl: ship to %s failed: %v", s.opts.Addr, err)
			return nil
		}
		s.down = false
		s.backoff = 0
		// Fencing wins over every watermark heuristic: a promoted replica's
		// watermark is from its new life and must not be "repaired" around —
		// the stream is dead, this node is an ex-primary.
		if status == proto.StatusFenced {
			s.fenced = true
			s.logf("repl: fenced by replica at %s (newer epoch)", s.opts.Addr)
			return core.ErrFenced
		}
		// Watermark sanity: the two ends can restart independently, and
		// either restart desyncs the stream in a way statuses alone don't
		// surface. A watermark past anything this shipper ever assigned
		// means the replica is on a previous life's stream and is
		// dup-skipping our frames (seq below its horizon) while "acking"
		// them — jump past its horizon and re-sync. A watermark below what
		// it already acked means the replica lost applied history (it
		// restarted) — re-sync it from a snapshot.
		if watermark > s.seq {
			s.seq = watermark
			s.scheduleBootstrapLocked("replica watermark ahead of stream (primary restarted)")
			return nil
		}
		if watermark < s.acked {
			s.scheduleBootstrapLocked("replica watermark regressed (replica restarted)")
			return nil
		}
		// Trim everything the replica now vouches for.
		if watermark > s.acked {
			s.acked = watermark
		}
		trimmed := 0
		for trimmed < len(s.buf) && s.buf[trimmed].seq <= s.acked {
			trimmed++
		}
		s.buf = s.buf[trimmed:]
		for i := 0; i < trimmed; i++ {
			m.Count(sim.CtrReplShipped)
		}
		switch status {
		case proto.StatusOK:
			// Chunk fully applied; keep draining.
		case proto.StatusReplGap:
			// Prefix applied; the replica wants a resend from acked+1. If
			// the gap persists (e.g. the replica keeps failing the apply)
			// give up for this commit — the frames stay buffered.
			if len(s.buf) > 0 && s.buf[0].seq > s.acked+1 {
				// The replica needs frames we no longer hold: re-sync.
				s.scheduleBootstrapLocked("replica behind retained buffer")
				return nil
			}
			gapRetries++
			if gapRetries > 3 {
				s.markDown()
				return nil
			}
		default:
			// Chain break, malformed stream, or replica-side corruption:
			// the stream state is unrecoverable in place. Re-sync.
			s.scheduleBootstrapLocked(fmt.Sprintf("replica rejected stream (status %d)", status))
			return nil
		}
	}
	return nil
}

// buildPayload concatenates buffered frames up to MaxBatchBytes and runs
// the armed flaky-link faults against the chunk.
func (s *Shipper) buildPayload() []byte {
	frames := make([][]byte, 0, len(s.buf))
	total := 0
	for _, f := range s.buf {
		if total > 0 && total+len(f.data) > s.opts.MaxBatchBytes {
			break
		}
		frames = append(frames, f.data)
		total += len(f.data)
	}
	frames = s.injectLinkFaults(frames)
	payload := make([]byte, 0, total)
	for _, f := range frames {
		payload = append(payload, f...)
	}
	return payload
}

// injectLinkFaults applies armed drop/dup/reorder faults to one outgoing
// chunk, at frame granularity.
func (s *Shipper) injectLinkFaults(frames [][]byte) [][]byte {
	p := s.opts.Faults
	if p == nil || len(frames) == 0 {
		return frames
	}
	if p.Hit(fault.PointReplDrop) {
		i := p.Pick(len(frames))
		frames = append(frames[:i:i], frames[i+1:]...)
		s.meter.Count(sim.CtrFaultInjected)
	}
	if len(frames) > 0 && p.Hit(fault.PointReplDup) {
		i := p.Pick(len(frames))
		frames = append(frames, nil)
		copy(frames[i+1:], frames[i:])
		frames[i+1] = frames[i]
		s.meter.Count(sim.CtrFaultInjected)
	}
	if len(frames) > 1 && p.Hit(fault.PointReplReorder) {
		i := p.Pick(len(frames) - 1)
		frames[i], frames[i+1] = frames[i+1], frames[i]
		s.meter.Count(sim.CtrFaultInjected)
	}
	return frames
}

// redialLocked attempts to (re)establish the replica link, honoring the
// capped, jittered backoff window. Caller holds mu.
//
//ss:ocall — dialing is a host crossing.
func (s *Shipper) redialLocked() bool {
	now := time.Now()
	if s.down && now.Before(s.downUntil) {
		return false
	}
	s.enclave.Syscall(s.meter, false)
	c, err := client.Dial(s.opts.Addr, s.opts.Link)
	if err != nil {
		s.markDown()
		return false
	}
	s.conn = c
	s.down = false
	s.backoff = 0
	return true
}

// markDown records a link failure and arms the next backoff window
// (exponential, capped, ±25% jitter).
func (s *Shipper) markDown() {
	s.down = true
	if s.backoff == 0 {
		s.backoff = s.opts.Backoff
	} else if s.backoff < s.opts.MaxBackoff {
		s.backoff *= 2
		if s.backoff > s.opts.MaxBackoff {
			s.backoff = s.opts.MaxBackoff
		}
	}
	jitter := time.Duration(float64(s.backoff) * 0.25 * (2*s.rng.Float64() - 1))
	s.downUntil = time.Now().Add(s.backoff + jitter)
}

// scheduleBootstrapLocked abandons the stream state and queues a full
// re-sync. Caller holds mu.
func (s *Shipper) scheduleBootstrapLocked(why string) {
	s.buf = s.buf[:0]
	s.needsBootstrap = true
	s.wake()
	s.logf("repl: scheduling bootstrap: %s", why)
}

// MigrateTo retargets the stream at a new (typically empty) node and
// schedules a full bootstrap — phase one of a live shard migration. The
// caller then waits for Synced and performs the cutover (promote + ring
// swap) on the cluster client.
func (s *Shipper) MigrateTo(addr string, link client.Options) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	s.opts.Addr = addr
	s.opts.Link = link
	s.fenced = false
	s.down = false
	s.backoff = 0
	s.scheduleBootstrapLocked("migration target " + addr)
}

// Synced reports whether the replica has acked every record the shipper
// was ever handed: no bootstrap pending or running, link up, buffer and
// pending run empty.
func (s *Shipper) Synced() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncedLocked()
}

func (s *Shipper) syncedLocked() bool {
	return !s.needsBootstrap && !s.bootstrapping && !s.down && !s.fenced && len(s.buf) == 0 && len(s.pending) == 0
}

// Fenced reports whether a promoted replica has fenced this primary out.
// A fenced node must stop accepting mutations (server.Config.Writable).
func (s *Shipper) Fenced() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fenced
}

// Watermark returns the replica's last acked sequence and the highest
// sequence assigned so far.
func (s *Shipper) Watermark() (acked, assigned uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked, s.seq
}

// ShipStats is one consistent snapshot of the stream's replication state
// — the control plane's lag-monitoring signal (Shipper.Stats).
type ShipStats struct {
	// Acked is the replica's durable watermark; Assigned the highest
	// frame sequence ever assigned. Assigned-Acked is the replication
	// lag in frames: the window a failover would have to give up.
	Acked, Assigned uint64
	// Synced mirrors Shipper.Synced; Fenced mirrors Shipper.Fenced.
	Synced, Fenced bool
	// Down reports the replica link in its backoff window;
	// Bootstrapping that a full re-sync is pending or running.
	Down, Bootstrapping bool
}

// Lag returns the unacked frame window (assigned - acked).
func (st ShipStats) Lag() uint64 {
	if st.Assigned < st.Acked {
		return 0
	}
	return st.Assigned - st.Acked
}

// Stats snapshots the stream state under one lock acquisition — the
// watermark pair and the link flags are mutually consistent, which the
// individual accessors cannot promise.
func (s *Shipper) Stats() ShipStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ShipStats{
		Acked:         s.acked,
		Assigned:      s.seq,
		Synced:        s.syncedLocked(),
		Fenced:        s.fenced,
		Down:          s.down,
		Bootstrapping: s.needsBootstrap || s.bootstrapping,
	}
}

// SetEpoch restamps the stream's fencing epoch — called when the node
// owning this shipper is promoted (its writes now belong to the new
// epoch) before the stream is retargeted at a fresh replica. Frames
// sealed after SetEpoch carry the new epoch; the bootstrap's reset frame
// hands it to the replica.
func (s *Shipper) SetEpoch(epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch > s.opts.Epoch {
		s.opts.Epoch = epoch
	}
}

// Meter exposes the shipper's own meter (bootstrap costs accrue here).
func (s *Shipper) Meter() *sim.Meter { return s.meter }

// bootstrapLoop is the background re-sync worker. It owns the three-phase
// bootstrap: (1) under mu, drop the unshipped frames and the pending run
// and restart the chain with a reset frame; (2) per partition, on that
// partition's own worker via RunCtl, snapshot every live entry into Set
// records on the shared run — the worker is parked for exactly its own
// partition's scan, so per-key mutation order is preserved and siblings
// keep serving; (3) seal the run, flush everything and hand the stream
// back to the commit path. Runs on its own goroutine: a Commit that finds
// bootstrap pending just pokes this loop and returns (a bounded degraded
// window), because snapshotting from inside a worker's commit would
// deadlock the pool.
func (s *Shipper) bootstrapLoop() {
	defer close(s.done)
	for {
		select {
		case <-s.quit:
			return
		case <-s.bootWake:
		}
		s.mu.Lock()
		if s.closed || !s.needsBootstrap {
			s.mu.Unlock()
			continue
		}
		s.needsBootstrap = false
		s.bootstrapping = true
		s.buf = s.buf[:0]
		s.pending = s.pending[:0]
		s.chain.reset()
		s.seq++
		s.buf = append(s.buf, shipFrame{seq: s.seq, data: encodeFrame(s.meter, s.enclave, s.chain, s.seq, s.opts.Epoch, nil)})
		s.mu.Unlock()

		for i := 0; i < s.p.Parts(); i++ {
			select {
			case <-s.quit:
				return
			default:
			}
			s.p.RunCtl(i, func(st *core.WorkerState) {
				err := st.Store.ForEachDecrypt(s.meter, func(key, val []byte) error {
					s.logOp(s.meter, core.BatchOp{Kind: core.BatchSet, Key: key, Value: val})
					return nil
				})
				if err != nil {
					// A quarantined/unreadable partition cannot contribute to
					// the snapshot; ship what the rest has and say so.
					s.logf("repl: bootstrap skipped partition %d: %v", i, err)
				}
			})
		}

		s.mu.Lock()
		s.bootstrapping = false
		if !s.closed && !s.needsBootstrap {
			s.sealLocked(s.meter)
			if err := s.flushLocked(s.meter); err != nil {
				s.logf("repl: bootstrap flush: %v", err)
			}
		}
		s.mu.Unlock()
	}
}
