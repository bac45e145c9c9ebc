// End-to-end replication over a real wire: a primary pool whose journals
// tee through a Shipper, a replica server applying via its Applier, and a
// fault plane mangling the link. The invariants under every fault mix:
// every acknowledged write eventually lands on the replica exactly once,
// frames never apply out of order, and the link re-syncs by itself.
package repl

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shieldstore/internal/client"
	"shieldstore/internal/core"
	"shieldstore/internal/fault"
	"shieldstore/internal/server"
	"shieldstore/internal/sim"
)

// replicaNode is one replica-role server over its own pool.
type replicaNode struct {
	p    *core.Partitioned
	a    *Applier
	srv  *server.Server
	addr string
}

func startReplicaNode(t *testing.T, seed uint64) *replicaNode {
	t.Helper()
	return startReplicaNodeWith(t, seed, nil)
}

// replicateFn is the server's Replicate hook.
type replicateFn = func(m *sim.Meter, payload []byte) (uint64, uint8)

// startReplicaNodeWith is startReplicaNode with the applier's Replicate
// hook passed through wrap (nil: unwrapped).
func startReplicaNodeWith(t *testing.T, seed uint64, wrap func(replicateFn) replicateFn) *replicaNode {
	t.Helper()
	e := testEnclave(seed)
	p := core.NewPartitioned(e, 2, core.Defaults(64))
	a, err := NewApplier(p, ApplierOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	t.Cleanup(p.Stop)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	replicate := a.Apply
	if wrap != nil {
		replicate = wrap(replicate)
	}
	srv := server.Serve(ln, server.Config{
		Engine:       server.CoreEngine{P: p},
		Enclave:      e,
		Logf:         t.Logf,
		DrainTimeout: 100 * time.Millisecond,
		Replicate:    replicate,
		Promote:      a.Promote,
		Writable:     a.Writable,
	})
	t.Cleanup(srv.Close)
	return &replicaNode{p: p, a: a, srv: srv, addr: srv.Addr().String()}
}

// startPrimaryPool builds a primary pool whose journals tee through a
// shipper at rep.addr, with the given fault plane on the link.
func startPrimaryPool(t *testing.T, seed uint64, addr string, faults *fault.Plane) (*core.Partitioned, *Shipper, *sim.Meter) {
	t.Helper()
	e := testEnclave(seed)
	p := core.NewPartitioned(e, 2, core.Defaults(64))
	s := NewShipper(p, ShipperOptions{
		Addr:   addr,
		Link:   client.Options{},
		Faults: faults,
		Logf:   t.Logf,
		// Tight link backoff: the matrix hammers retries.
		Backoff:    time.Millisecond,
		MaxBackoff: 10 * time.Millisecond,
	})
	for i := 0; i < p.Parts(); i++ {
		p.SetJournal(i, s.Tee(i, nil))
	}
	p.Start()
	t.Cleanup(p.Stop)
	s.Start()
	t.Cleanup(s.Close)
	return p, s, sim.NewMeter(e.Model())
}

// loadKeys drives n mixed mutations through the primary and returns the
// expected key->value map. Every call below returning nil error is an
// acknowledged write — the replica must end up holding exactly this map.
func loadKeys(t *testing.T, p *core.Partitioned, m *sim.Meter, prefix string, n int) map[string]string {
	t.Helper()
	expect := map[string]string{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("%s%04d", prefix, i)
		v := fmt.Sprintf("val-%04d", i)
		if err := p.Set(m, []byte(k), []byte(v)); err != nil {
			t.Fatalf("Set %s: %v", k, err)
		}
		expect[k] = v
		switch i % 5 {
		case 1:
			if err := p.Append(m, []byte(k), []byte("+tail")); err != nil {
				t.Fatalf("Append %s: %v", k, err)
			}
			expect[k] = v + "+tail"
		case 2:
			if err := p.Delete(m, []byte(k)); err != nil {
				t.Fatalf("Delete %s: %v", k, err)
			}
			delete(expect, k)
		case 3:
			ctr := fmt.Sprintf("%sctr%04d", prefix, i)
			if _, err := p.Incr(m, []byte(ctr), int64(i)); err != nil {
				t.Fatalf("Incr %s: %v", ctr, err)
			}
			expect[ctr] = fmt.Sprintf("%d", i)
		case 4:
			// Three batched sets on one partition, each over half of
			// maxRunBytes: the drain seals an early frame after the second
			// record and its commit seals the third, so one commit ships a
			// multi-frame payload — adjacent frames for the reorder/dup
			// faults to mangle.
			big := strings.Repeat(v, maxRunBytes/2/len(v)+1)
			part := p.Route(m, []byte(k))
			var ops []core.BatchOp
			for j := 0; len(ops) < 3; j++ {
				bk := fmt.Sprintf("%sb%04d-%d", prefix, i, j)
				if p.Route(m, []byte(bk)) != part {
					continue
				}
				ops = append(ops, core.BatchOp{Kind: core.BatchSet, Key: []byte(bk), Value: []byte(big)})
				expect[bk] = big
			}
			for _, r := range p.SubmitBatch(m, ops).Wait() {
				if r.Err != nil {
					t.Fatalf("batch set: %v", r.Err)
				}
			}
		}
	}
	return expect
}

// verifyReplica asserts the replica pool holds exactly expect.
func verifyReplica(t *testing.T, rep *replicaNode, expect map[string]string) {
	t.Helper()
	m := sim.NewMeter(rep.p.Enclave().Model())
	for k, v := range expect {
		got, err := rep.p.Get(m, []byte(k))
		if err != nil {
			t.Fatalf("replica Get %s: %v", k, err)
		}
		if string(got) != v {
			t.Fatalf("replica %s = %q, want %q", k, got, v)
		}
	}
	if int(rep.p.Keys()) != len(expect) {
		t.Fatalf("replica holds %d keys, want %d", rep.p.Keys(), len(expect))
	}
}

func waitSynced(t *testing.T, s *Shipper, rep *replicaNode) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		acked, assigned := s.Watermark()
		if s.Synced() && acked == assigned && rep.a.Watermark() == assigned {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	acked, assigned := s.Watermark()
	t.Fatalf("never synced: acked=%d assigned=%d replicaWM=%d synced=%v",
		acked, assigned, rep.a.Watermark(), s.Synced())
}

func TestReplPairShipsEverything(t *testing.T) {
	rep := startReplicaNode(t, 31)
	p, s, m := startPrimaryPool(t, 31, rep.addr, nil)

	expect := loadKeys(t, p, m, "k", 120)
	waitSynced(t, s, rep)
	verifyReplica(t, rep, expect)

	// Every frame ever assigned was shipped and acked, and the sender's
	// meter, not a partition's, counted it.
	st := s.Stats()
	if shipped := st.Sender.Events[sim.CtrReplShipped]; shipped == 0 || shipped != st.Assigned {
		t.Fatalf("sender shipped %d frames, want Assigned = %d", shipped, st.Assigned)
	}
	if got := p.AggregateStats().Events[sim.CtrReplShipped]; got != 0 {
		t.Fatalf("partitions counted %d shipped frames, want 0: the round trip is the sender's", got)
	}
	if rep.a.Writable() {
		t.Fatal("unpromoted replica is writable")
	}
}

// TestReplFlakyLinkMatrix is the fault matrix for the shipping link:
// dropped, duplicated and reordered frames (alone and combined) must be
// detected by the replica's sequence/MAC chain — gap or chain break —
// then healed by resend or re-sync, with nothing applied out of order
// and nothing applied twice.
func TestReplFlakyLinkMatrix(t *testing.T) {
	cases := []struct {
		name   string
		points []string
	}{
		{"drop", []string{fault.PointReplDrop}},
		{"dup", []string{fault.PointReplDup}},
		{"reorder", []string{fault.PointReplReorder}},
		{"all", []string{fault.PointReplDrop, fault.PointReplDup, fault.PointReplReorder}},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plane := fault.New(uint64(100 + ci))
			for _, pt := range tc.points {
				// Fire on scattered payloads: Skip staggers the first hit,
				// Count bounds the total so the stream can converge.
				plane.Arm(pt, fault.Spec{Skip: 2, Count: 8})
			}
			rep := startReplicaNode(t, uint64(40+ci))
			p, s, m := startPrimaryPool(t, uint64(40+ci), rep.addr, plane)

			expect := loadKeys(t, p, m, "f", 150)
			if plane.TotalFired() == 0 {
				t.Fatal("no link fault ever fired")
			}
			waitSynced(t, s, rep)
			verifyReplica(t, rep, expect)
		})
	}
}

// TestShipperMigratesToFreshReplica is live migration phases 1+2 at the
// repl layer: retarget the stream at an empty node, bootstrap (snapshot +
// catch-up), and report Synced — the caller's cue to cut over.
func TestShipperMigratesToFreshReplica(t *testing.T) {
	rep := startReplicaNode(t, 55)
	p, s, m := startPrimaryPool(t, 55, rep.addr, nil)
	// A fresh shipper's first stream to a fresh replica is a bootstrap
	// whose reset is seq 1, as Node.Attach's is when it re-protects a
	// shard: the replica takes it as a reset the first time.
	s.MigrateTo(rep.addr, client.Options{})

	expect := loadKeys(t, p, m, "m", 80)
	waitSynced(t, s, rep)
	if got := s.Stats().Bootstraps; got != 1 {
		t.Fatalf("first stream to a fresh replica ran %d bootstraps, want 1", got)
	}

	// New (empty) target comes up; the stream re-aims and bootstraps.
	spare := startReplicaNode(t, 55)
	s.MigrateTo(spare.addr, client.Options{})

	// Writes keep flowing during the migration window.
	for k, v := range loadKeys(t, p, m, "mw", 40) {
		expect[k] = v
	}
	waitSynced(t, s, spare)
	verifyReplica(t, spare, expect)
	// The fresh spare takes the bootstrap's reset as a reset the first
	// time: one bootstrap, not a refused one and a retry.
	if got := s.Stats().Bootstraps - 1; got != 1 {
		t.Fatalf("migration to a fresh replica ran %d bootstraps, want 1", got)
	}

	// The old replica is simply abandoned mid-history; the new one is
	// complete. (Cutover/promotion is the cluster layer's job.)
	if spare.a.Writable() {
		t.Fatal("migration target writable before promotion")
	}
}

// TestShipperBuffersThroughReplicaOutage kills the replica server
// mid-load: writes keep succeeding (buffered), and when a replacement
// comes up at a new address the stream re-syncs completely.
func TestShipperBuffersThroughReplicaOutage(t *testing.T) {
	rep := startReplicaNode(t, 77)
	p, s, m := startPrimaryPool(t, 77, rep.addr, nil)

	expect := loadKeys(t, p, m, "a", 60)
	waitSynced(t, s, rep)

	rep.srv.Close() // the outage: acks stop, writes must not
	for k, v := range loadKeys(t, p, m, "b", 60) {
		expect[k] = v
	}

	rep2 := startReplicaNode(t, 77)
	s.MigrateTo(rep2.addr, client.Options{})
	waitSynced(t, s, rep2)
	verifyReplica(t, rep2, expect)
}

// TestShipperOverflowBootstraps: with the replica down, a primary that
// keeps writing fills the unacked buffer to maxBuffer frames; the next
// seal abandons the buffer and schedules one bootstrap instead. No write
// fails, and a fresh replica the stream then migrates to converges.
func TestShipperOverflowBootstraps(t *testing.T) {
	rep := startReplicaNode(t, 79)
	e := testEnclave(79)
	p := core.NewPartitioned(e, 2, core.Defaults(64))
	var logMu sync.Mutex
	var logged []string
	s := NewShipper(p, ShipperOptions{Addr: rep.addr, Logf: func(format string, args ...any) {
		logMu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		logMu.Unlock()
		t.Logf(format, args...)
	}})
	for i := 0; i < p.Parts(); i++ {
		p.SetJournal(i, s.Tee(i, nil))
	}
	p.Start()
	t.Cleanup(p.Stop)
	s.Start()
	t.Cleanup(s.Close)
	m := sim.NewMeter(e.Model())

	expect := loadKeys(t, p, m, "o", 20)
	waitSynced(t, s, rep)
	rep.srv.Close()

	// One Set is one drain and seals one frame, so the buffer overflows
	// after about maxBuffer sets; a missing overflow check runs out the cap.
	sets := 0
	for s.Stats().Bootstraps == 0 {
		if sets == 2*maxBuffer {
			t.Fatalf("no bootstrap after %d sets with the replica down", sets)
		}
		k, v := fmt.Sprintf("o-hot%02d", sets%64), fmt.Sprintf("v%d", sets)
		if err := p.Set(m, []byte(k), []byte(v)); err != nil {
			t.Fatalf("Set %d with the replica down: %v", sets, err)
		}
		expect[k] = v
		sets++
	}
	t.Logf("buffer overflowed after %d sets", sets)
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Bootstrapping {
		if time.Now().After(deadline) {
			t.Fatal("overflow bootstrap never finished")
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.Stats().Bootstraps; got != 1 {
		t.Fatalf("overflow took %d bootstraps, want 1", got)
	}
	logMu.Lock()
	overflowed := strings.Contains(strings.Join(logged, "\n"), "unacked buffer overflow")
	logMu.Unlock()
	if !overflowed {
		t.Fatal(`log never said "unacked buffer overflow"`)
	}

	spare := startReplicaNode(t, 79)
	s.MigrateTo(spare.addr, client.Options{})
	waitSynced(t, s, spare)
	verifyReplica(t, spare, expect)
}

// TestShipperSealsOneFramePerCommit: a 32-set batch drains as one group
// commit per partition, and each commit seals its records as one frame,
// so the stream assigns at most one sequence number per partition.
func TestShipperSealsOneFramePerCommit(t *testing.T) {
	rep := startReplicaNode(t, 63)
	p, s, m := startPrimaryPool(t, 63, rep.addr, nil)

	before := s.Stats().Assigned
	ops := make([]core.BatchOp, 32)
	expect := map[string]string{}
	for i := range ops {
		k, v := fmt.Sprintf("s%02d", i), fmt.Sprintf("v%02d", i)
		ops[i] = core.BatchOp{Kind: core.BatchSet, Key: []byte(k), Value: []byte(v)}
		expect[k] = v
	}
	for _, r := range p.SubmitBatch(m, ops).Wait() {
		if r.Err != nil {
			t.Fatalf("batch set: %v", r.Err)
		}
	}
	if frames := s.Stats().Assigned - before; frames == 0 || frames > 2 {
		t.Fatalf("32 sets on 2 partitions took %d frames, want 1 or 2", frames)
	}
	waitSynced(t, s, rep)
	verifyReplica(t, rep, expect)
}

// TestBootstrapDropsPendingRun: the bootstrap's snapshot alone defines
// the restarted stream. Records still on the pending run at the reset
// were logged by drains whose mutations the stores already hold, so the
// scan ships them; the reset drops the run. The record logged here is
// one no store holds, so a reset that kept the run would leak it onto
// the replica.
func TestBootstrapDropsPendingRun(t *testing.T) {
	rep := startReplicaNode(t, 65)
	p, s, m := startPrimaryPool(t, 65, rep.addr, nil)
	expect := loadKeys(t, p, m, "r", 20)
	waitSynced(t, s, rep)

	s.logOp(m, core.BatchOp{Kind: core.BatchSet, Key: []byte("ghost"), Value: []byte("x")})
	if s.Synced() {
		t.Fatal("Synced with a record on the pending run")
	}
	s.mu.Lock()
	s.scheduleBootstrapLocked("test re-sync")
	s.mu.Unlock()
	waitSynced(t, s, rep)
	verifyReplica(t, rep, expect)
}

// replicaGate holds every payload that reaches the replica while it is
// shut, counting them. It starts open, shuts once and opens for good.
type replicaGate struct {
	shut    atomic.Bool
	held    atomic.Int32
	entered chan struct{}
	release chan struct{}
}

func newReplicaGate() *replicaGate {
	return &replicaGate{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (g *replicaGate) wrap(apply replicateFn) replicateFn {
	return func(m *sim.Meter, payload []byte) (uint64, uint8) {
		if g.shut.Load() {
			g.held.Add(1)
			select {
			case g.entered <- struct{}{}:
			default:
			}
			<-g.release
		}
		return apply(m, payload)
	}
}

// open lets the held payload and every later one through.
func (g *replicaGate) open() {
	if g.shut.Swap(false) {
		close(g.release)
	}
}

// keyOn returns a key of the given prefix that routes to partition part.
func keyOn(p *core.Partitioned, m *sim.Meter, prefix string, part int) string {
	for i := 0; ; i++ {
		if k := fmt.Sprintf("%s%d", prefix, i); p.Route(m, []byte(k)) == part {
			return k
		}
	}
}

// within runs fn and fails the test if it has not returned in 10 s.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never completed", what)
	}
}

// setAsync issues one Set and reports its result on the returned channel.
func setAsync(p *core.Partitioned, m *sim.Meter, key, val string) <-chan error {
	done := make(chan error, 1)
	go func() { done <- p.Set(m, []byte(key), []byte(val)) }()
	return done
}

// TestShipperGateSealsWhileLinkBusy: the replica link is not a lock.
// While one payload is held at the replica, another partition's drain
// logs and seals its frame (Assigned advances) and waits; the sender
// keeps that one payload in flight, the held commit's caller is not
// acked, and both drains are acked once the replica answers.
func TestShipperGateSealsWhileLinkBusy(t *testing.T) {
	gate := newReplicaGate()
	rep := startReplicaNodeWith(t, 67, gate.wrap)
	p, s, _ := startPrimaryPool(t, 67, rep.addr, nil)
	t.Cleanup(gate.open) // first: a held payload must not stall teardown
	m0 := sim.NewMeter(p.Enclave().Model())
	m1 := sim.NewMeter(p.Enclave().Model())
	k0, k1 := keyOn(p, m0, "g", 0), keyOn(p, m0, "g", 1)

	gate.shut.Store(true)
	first := setAsync(p, m0, k0, "v0")
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("first payload never reached the replica")
	}
	// Were the link a lock, Stats would block behind the held payload
	// too, so both waits run off the test goroutine.
	var before uint64
	within(t, "Stats while a payload is in flight", func() { before = s.Stats().Assigned })
	second := setAsync(p, m1, k1, "v1")
	within(t, "the second partition's seal while a payload is in flight", func() {
		for s.Stats().Assigned == before {
			time.Sleep(time.Millisecond)
		}
	})
	for name, done := range map[string]<-chan error{"held": first, "second": second} {
		select {
		case err := <-done:
			t.Fatalf("%s commit acked (err %v) before the replica answered", name, err)
		case <-time.After(20 * time.Millisecond):
		}
	}
	if n := gate.held.Load(); n != 1 {
		t.Fatalf("%d payloads in flight, want 1", n)
	}

	gate.open()
	for name, done := range map[string]<-chan error{"held": first, "second": second} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s commit: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s commit never acked after the replica answered", name)
		}
	}
	waitSynced(t, s, rep)
	verifyReplica(t, rep, map[string]string{k0: "v0", k1: "v1"})
}

// TestShipperCommitOutsideStartClose: a commit never blocks without a
// running sender — before Start, with a payload in flight when Close
// runs, or after Close. Frames sealed before Start ship once it runs.
func TestShipperCommitOutsideStartClose(t *testing.T) {
	gate := newReplicaGate()
	rep := startReplicaNodeWith(t, 69, gate.wrap)
	e := testEnclave(69)
	p := core.NewPartitioned(e, 2, core.Defaults(64))
	s := NewShipper(p, ShipperOptions{Addr: rep.addr, Logf: t.Logf})
	for i := 0; i < p.Parts(); i++ {
		p.SetJournal(i, s.Tee(i, nil))
	}
	p.Start()
	t.Cleanup(p.Stop)
	t.Cleanup(s.Close)
	t.Cleanup(gate.open) // first: a held payload must not stall teardown
	m := sim.NewMeter(e.Model())
	returns := func(what string, done <-chan error) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never returned", what)
		}
	}

	returns("commit before Start", setAsync(p, m, "early", "1"))
	s.Start()
	waitSynced(t, s, rep)
	verifyReplica(t, rep, map[string]string{"early": "1"})

	// A payload held at the replica when Close runs: Close drops the link
	// and the waiting commit returns.
	gate.shut.Store(true)
	held := setAsync(p, m, "held", "2")
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("payload never reached the replica")
	}
	s.Close()
	returns("commit in flight at Close", held)
	returns("commit after Close", setAsync(p, m, "late", "3"))
}
