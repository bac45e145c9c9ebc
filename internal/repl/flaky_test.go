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
	srv := server.Serve(ln, server.Config{
		Engine:       server.CoreEngine{P: p},
		Enclave:      e,
		Logf:         t.Logf,
		DrainTimeout: 100 * time.Millisecond,
		Replicate:    a.Apply,
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
		// The shipper only flushes inside commits and bootstraps: nudge it
		// with an empty-cost commit via a throwaway mutation-free flush.
		s.mu.Lock()
		if !s.needsBootstrap && !s.bootstrapping && !s.closed && !s.fenced {
			s.flushLocked(s.meter)
		}
		s.mu.Unlock()
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

	st := p.AggregateStats()
	if st.Events[sim.CtrReplShipped] == 0 {
		t.Fatal("CtrReplShipped = 0 on the primary")
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

	expect := loadKeys(t, p, m, "m", 80)
	waitSynced(t, s, rep)

	// New (empty) target comes up; the stream re-aims and bootstraps.
	spare := startReplicaNode(t, 55)
	s.MigrateTo(spare.addr, client.Options{})

	// Writes keep flowing during the migration window.
	for k, v := range loadKeys(t, p, m, "mw", 40) {
		expect[k] = v
	}
	waitSynced(t, s, spare)
	verifyReplica(t, spare, expect)

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
