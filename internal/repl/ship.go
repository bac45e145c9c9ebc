// The primary side of replication: the Shipper tees every journaled
// mutation into a pending run and seals each group commit's run as one
// MAC-chained frame. One sender goroutine owns the replica link and ships
// everything sealed since its last round trip as one payload, at most one
// payload in flight. A partition worker's group commit only seals and
// waits — off the shipper's mutex — until the replica acks its frame,
// before any client acknowledgement, so a client ack always implies a
// replica ack while the link is up.
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

const (
	// maxBuffer bounds how many frames may sit unacked while the replica
	// link is down. A frame is one group commit's worth of records (at
	// most maxRunBytes of them). Overflow abandons the buffered tail and
	// schedules a full bootstrap instead — acked writes are still safe on
	// the primary; the replica just re-syncs from a snapshot.
	maxBuffer = 1 << 16
	// maxBatchBytes bounds one CmdReplicate payload.
	maxBatchBytes = 1 << 20
	// maxRunBytes is the size at which a pending run is sealed before its
	// commit, bounding one frame — and the replica's apply batch — well
	// under maxBatchBytes.
	maxRunBytes = 64 << 10
)

// shipFrame is one encoded, unacked frame in the shipper's buffer.
type shipFrame struct {
	seq  uint64
	data []byte
}

// Shipper is the primary-side replication engine. Create one per shard
// (NewShipper), wrap every partition journal with Tee (or
// persist.HealerOptions.WrapJournal), Start it, and the worker pool's
// group commit does the rest: append to the pending run on journal, seal
// it and wait for the replica's ack on Commit.
//
// All mutable state is under mu, but mu is never held across the
// network. Partition workers take it to append and seal, the bootstrap
// goroutine to restart the stream, and the one sender goroutine to build
// a payload and to apply its reply. A committing worker releases mu while
// it waits for the acked watermark, so a wedged replica link stalls the
// acknowledgements of the drains waiting on it, never another partition's
// seal — and never acks a write the replica has not seen.
type Shipper struct {
	p       *core.Partitioned
	enclave *sgx.Enclave
	opts    ShipperOptions
	meter   *sim.Meter // bootstrap/background costs: not request cost
	// sendMeter takes the sender's costs: each round trip's HotCall,
	// syscall and NIC charges, and the frames it saw acked. Like meter it
	// is no partition worker's. It is charged and read only under mu.
	sendMeter *sim.Meter

	mu sync.Mutex
	// ackMoved wakes the commits waiting on the watermark. It is broadcast
	// when acked advances, the link fails, gen moves, or the shipper is
	// fenced or closed.
	ackMoved *sync.Cond
	chain    *chainState
	seq      uint64 // last assigned frame sequence
	acked    uint64 // replica's durable watermark
	buf      []shipFrame
	// pending is the open run: records logged since the last seal, from
	// every partition, in log order. A record logged through a journal
	// detached mid-drain still ships with the next commit on any
	// partition.
	pending []byte
	// gen names the stream's state. It moves whenever a bootstrap is
	// scheduled or starts, so a reply to a payload of an older gen is
	// stale and dropped.
	gen uint64
	// downs counts link failures: a commit waiting across one returns.
	downs      uint64
	bootstraps uint64

	conn      *client.Client // owned by the sender; Close and MigrateTo only close it
	down      bool
	downUntil time.Time
	backoff   time.Duration
	rng       *rand.Rand

	fenced         bool
	needsBootstrap bool
	bootstrapping  bool
	started        bool
	closed         bool

	bootWake chan struct{}
	sendWake chan struct{}
	quit     chan struct{}
	workers  sync.WaitGroup
}

// NewShipper builds a shipper for pool p targeting opts.Addr. Wire the
// tees (Tee / WrapJournal) before the pool starts, then call Start.
func NewShipper(p *core.Partitioned, opts ShipperOptions) *Shipper {
	if opts.Epoch == 0 {
		opts.Epoch = 1
	}
	if opts.Backoff == 0 {
		opts.Backoff = 5 * time.Millisecond
	}
	if opts.MaxBackoff == 0 {
		opts.MaxBackoff = time.Second
	}
	s := &Shipper{
		p:         p,
		enclave:   p.Enclave(),
		opts:      opts,
		meter:     sim.NewMeter(p.Enclave().Model()),
		sendMeter: sim.NewMeter(p.Enclave().Model()),
		chain:     newChain(p.Enclave()),
		rng:       rand.New(rand.NewSource(1)),
		bootWake:  make(chan struct{}, 1),
		sendWake:  make(chan struct{}, 1),
		quit:      make(chan struct{}),
	}
	s.ackMoved = sync.NewCond(&s.mu)
	return s
}

// Start launches the bootstrap worker and the sender. Call after
// Partitioned.Start. Frames sealed before Start ship once it runs.
func (s *Shipper) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return
	}
	s.started = true
	s.workers.Add(2)
	go s.bootstrapLoop()
	go s.sendLoop()
}

// Close stops the bootstrap worker and the sender and drops the link:
// closing the connection unblocks an in-flight round trip, and every
// waiting commit returns. Buffered frames are abandoned (the replica
// re-syncs from whoever ships next). Call before Partitioned.Stop — the
// bootstrap worker uses RunCtl.
func (s *Shipper) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	s.ackMoved.Broadcast()
	s.mu.Unlock()
	close(s.quit)
	s.workers.Wait()
	s.mu.Lock()
	s.chain.release()
	s.mu.Unlock()
}

// Tee wraps a partition's journal so every logged mutation is also
// appended to the replication run, and the worker's group commit seals
// it and waits for the replica's ack. inner may be nil (replication
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

// Commit is the group-commit barrier: seal the pending run, hand it to
// the sender and return only once the replica acked it (or the failure
// was absorbed into a buffered/bootstrap state that keeps the
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
	if s.down && !s.bootstrapping && !s.needsBootstrap && len(s.buf) >= maxBuffer {
		s.scheduleBootstrapLocked("unacked buffer overflow")
	}
	s.seq++
	s.buf = append(s.buf, shipFrame{seq: s.seq, data: encodeFrame(m, s.enclave, s.chain, s.seq, s.opts.Epoch, s.pending)})
	s.pending = s.pending[:0]
}

// commit implements the group-commit barrier (see tee.Commit). The
// worker pays the seal and one HotCall-priced hand-off; the round trip
// is the sender's. It returns nil once the acked watermark covers every
// frame sealed so far — this drain's records are in one of them — or at
// once when there is no sender (before Start, after Close), a bootstrap
// is pending or running, or the link is in its backoff window. A link
// failure or a bootstrap scheduled while it waits also returns nil, and
// a fence returns core.ErrFenced.
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
	if !s.started || s.acked >= s.seq || s.down && time.Now().Before(s.downUntil) {
		return nil // nothing to wait for, or buffering through the outage
	}
	want, gen, downs := s.seq, s.gen, s.downs
	s.enclave.HotCall(m)
	s.wakeSender()
	for s.acked < want && s.gen == gen && s.downs == downs && !s.fenced && !s.closed {
		s.ackMoved.Wait()
	}
	if s.acked < want && s.fenced {
		return core.ErrFenced
	}
	return nil
}

// wake pokes the bootstrap worker (non-blocking; the channel latches).
func (s *Shipper) wake() {
	select {
	case s.bootWake <- struct{}{}:
	default:
	}
}

// wakeSender tells the sender there are frames to ship (non-blocking;
// the channel latches).
func (s *Shipper) wakeSender() {
	select {
	case s.sendWake <- struct{}{}:
	default:
	}
}

func (s *Shipper) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// sendLoop is the sender: the one goroutine that dials and uses the
// replica link. Each round it ships the unacked buffer's head — all that
// was sealed since its last round trip, up to maxBatchBytes — as one
// CmdReplicate payload and waits for the reply with mu released, so at
// most one payload is in flight and no partition waits on the link to
// seal. It idles while there is nothing to ship, the stream is fenced or
// bootstrapping, or the link is in its backoff window.
//
//ss:ocall — shipping crosses the enclave boundary per payload.
func (s *Shipper) sendLoop() {
	defer s.workers.Done()
	gapRetries := 0
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		backoff, ready := s.readyLocked()
		if !ready {
			s.mu.Unlock()
			if !s.idle(backoff) {
				return
			}
			continue
		}
		conn, gen := s.conn, s.gen
		if conn == nil {
			addr, link := s.opts.Addr, s.opts.Link
			s.enclave.Syscall(s.sendMeter, false)
			s.mu.Unlock()
			c, err := client.Dial(addr, link)
			s.mu.Lock()
			s.dialedLocked(c, err, gen)
			s.mu.Unlock()
			continue
		}
		payload := s.buildPayloadLocked()
		s.mu.Unlock()
		status, watermark, err := conn.Replicate(payload)
		s.mu.Lock()
		gapRetries = s.replyLocked(conn, gen, status, watermark, err, gapRetries)
		s.mu.Unlock()
	}
}

// readyLocked reports whether the sender has frames to ship now; if not,
// backoff is how long the link's backoff window still runs (0: until a
// wake-up). Caller holds mu.
func (s *Shipper) readyLocked() (backoff time.Duration, ready bool) {
	if s.fenced || s.needsBootstrap || s.bootstrapping || len(s.buf) == 0 {
		return 0, false
	}
	if s.down {
		if d := time.Until(s.downUntil); d > 0 {
			return d, false
		}
	}
	return 0, true
}

// idle parks the sender until it is woken, the backoff window (if any)
// ends, or the shipper closes; it reports false on close.
func (s *Shipper) idle(backoff time.Duration) bool {
	var expired <-chan time.Time
	if backoff > 0 {
		t := time.NewTimer(backoff)
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-s.quit:
		return false
	case <-s.sendWake:
	case <-expired:
	}
	return true
}

// dialedLocked installs a connection the sender dialed at gen, or
// records the failure. A connection dialed for a stream state that has
// since moved (a retarget, a bootstrap) is closed; the next round
// redials. Caller holds mu.
func (s *Shipper) dialedLocked(c *client.Client, err error, gen uint64) {
	if err != nil {
		if gen == s.gen && !s.closed {
			s.markDown()
		}
		return
	}
	if gen != s.gen || s.closed {
		c.Close()
		return
	}
	s.conn = c
	s.down = false
	s.backoff = 0
}

// buildPayloadLocked concatenates buffered frames up to maxBatchBytes,
// runs the armed flaky-link faults against the chunk and charges the
// round trip's crossing and NIC costs to the sender's meter. Caller
// holds mu.
func (s *Shipper) buildPayloadLocked() []byte {
	frames := make([][]byte, 0, len(s.buf))
	total := 0
	for _, f := range s.buf {
		if total > 0 && total+len(f.data) > maxBatchBytes {
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
	s.enclave.Syscall(s.sendMeter, true)
	s.sendMeter.Charge(s.enclave.Model().NIC(len(payload)))
	s.sendMeter.Count(sim.CtrNetMessage)
	return payload
}

// injectLinkFaults applies armed drop/dup/reorder faults to one outgoing
// chunk, at frame granularity. Caller holds mu.
func (s *Shipper) injectLinkFaults(frames [][]byte) [][]byte {
	p := s.opts.Faults
	if p == nil || len(frames) == 0 {
		return frames
	}
	if p.Hit(fault.PointReplDrop) {
		i := p.Pick(len(frames))
		frames = append(frames[:i:i], frames[i+1:]...)
		s.sendMeter.Count(sim.CtrFaultInjected)
	}
	if len(frames) > 0 && p.Hit(fault.PointReplDup) {
		i := p.Pick(len(frames))
		frames = append(frames, nil)
		copy(frames[i+1:], frames[i:])
		frames[i+1] = frames[i]
		s.sendMeter.Count(sim.CtrFaultInjected)
	}
	if len(frames) > 1 && p.Hit(fault.PointReplReorder) {
		i := p.Pick(len(frames) - 1)
		frames[i], frames[i+1] = frames[i+1], frames[i]
		s.sendMeter.Count(sim.CtrFaultInjected)
	}
	return frames
}

// replyLocked applies the reply to a payload shipped on conn at gen and
// returns the updated count of consecutive gap replies. A transport
// failure closes conn and, if it is still the link, marks the link down;
// a reply from a link or stream state that has since been replaced is
// dropped. Transport failures and re-syncable replica states leave the
// frames buffered or schedule a bootstrap; fencing latches. Caller holds
// mu.
func (s *Shipper) replyLocked(conn *client.Client, gen uint64, status uint8, watermark uint64, err error, gapRetries int) int {
	if err != nil {
		conn.Close()
		if conn == s.conn {
			s.conn = nil
			s.markDown()
			s.logf("repl: ship to %s failed: %v", s.opts.Addr, err)
		}
		return 0
	}
	if gen != s.gen || conn != s.conn {
		return 0
	}
	s.down = false
	s.backoff = 0
	// Fencing wins over every watermark heuristic: a promoted replica's
	// watermark is from its new life and must not be "repaired" around —
	// the stream is dead, this node is an ex-primary.
	if status == proto.StatusFenced {
		s.fenced = true
		s.ackMoved.Broadcast()
		s.logf("repl: fenced by replica at %s (newer epoch)", s.opts.Addr)
		return 0
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
		return 0
	}
	if watermark < s.acked {
		s.scheduleBootstrapLocked("replica watermark regressed (replica restarted)")
		return 0
	}
	// Trim everything the replica now vouches for.
	if watermark > s.acked {
		s.acked = watermark
		s.ackMoved.Broadcast()
	}
	trimmed := 0
	for trimmed < len(s.buf) && s.buf[trimmed].seq <= s.acked {
		trimmed++
	}
	s.buf = s.buf[trimmed:]
	s.sendMeter.CountN(sim.CtrReplShipped, uint64(trimmed))
	switch status {
	case proto.StatusOK:
		// Chunk fully applied; keep draining.
		return 0
	case proto.StatusReplGap:
		// Prefix applied; the replica wants a resend from acked+1. If
		// the gap persists (e.g. the replica keeps failing the apply)
		// back off — the frames stay buffered.
		if len(s.buf) > 0 && s.buf[0].seq > s.acked+1 {
			// The replica needs frames we no longer hold: re-sync.
			s.scheduleBootstrapLocked("replica behind retained buffer")
			return 0
		}
		if gapRetries++; gapRetries > 3 {
			s.markDown()
			return 0
		}
		return gapRetries
	default:
		// Chain break, malformed stream, or replica-side corruption:
		// the stream state is unrecoverable in place. Re-sync.
		s.scheduleBootstrapLocked(fmt.Sprintf("replica rejected stream (status %d)", status))
		return 0
	}
}

// markDown records a link failure, arms the next backoff window
// (exponential, capped, ±25% jitter) and releases the commits waiting on
// the link. Caller holds mu.
func (s *Shipper) markDown() {
	s.down = true
	s.downs++
	s.ackMoved.Broadcast()
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
// re-sync; the commits waiting on the old stream return. Caller holds mu.
func (s *Shipper) scheduleBootstrapLocked(why string) {
	s.buf = s.buf[:0]
	s.needsBootstrap = true
	s.gen++
	s.ackMoved.Broadcast()
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
	// Bootstraps counts the full re-syncs started.
	Bootstraps uint64
	// Sender is the sender's meter: CtrNetMessage counts payloads (round
	// trips), CtrReplShipped the frames they saw acked, and Cycles the
	// link's HotCall, syscall and NIC cost.
	Sender sim.Stats
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
		Bootstraps:    s.bootstraps,
		Sender:        s.sendMeter.Snapshot(),
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

// bootstrapLoop is the background re-sync worker. It owns the three-phase
// bootstrap: (1) under mu, drop the unshipped frames and the pending run
// and restart the chain with a reset frame; (2) per partition, on that
// partition's own worker via RunCtl, snapshot every live entry into Set
// records on the shared run — the worker is parked for exactly its own
// partition's scan, so per-key mutation order is preserved and siblings
// keep serving; (3) seal the run and hand the stream back to the sender
// and the commit path. Runs on its own goroutine: a Commit that finds
// bootstrap pending just pokes this loop and returns (a bounded degraded
// window), because snapshotting from inside a worker's commit would
// deadlock the pool.
func (s *Shipper) bootstrapLoop() {
	defer s.workers.Done()
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
		s.bootstraps++
		s.gen++
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
			s.wakeSender()
		}
		s.mu.Unlock()
	}
}
