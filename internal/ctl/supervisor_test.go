// Supervisor orchestration, end to end over real wires: a killed
// primary is detected by the probe loop, its replica promoted at
// epoch+1, the topology republished, and the shard re-protected by
// spawning and attaching a spare — all without any client deciding
// anything. Flaky probe links never promote. These tests use the
// in-process cluster harness; the full adversarial schedule lives in
// chaos_test.go.
package ctl_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"shieldstore/internal/client"
	"shieldstore/internal/cluster"
	"shieldstore/internal/ctl"
)

// startPairs boots a Secure primary/replica harness for ctl tests.
func startPairs(t *testing.T, cfg cluster.HarnessConfig) *cluster.Harness {
	t.Helper()
	if cfg.Buckets == 0 {
		cfg.Buckets = 1 << 10
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = 2
	}
	cfg.Secure = true
	cfg.Replicas = true
	cfg.Logf = t.Logf
	h, err := cluster.StartHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// supervisorFor starts a supervisor covering every harness pair. It is
// registered for cleanup after the harness, so it closes first.
func supervisorFor(t *testing.T, h *cluster.Harness, tune func(*ctl.Config)) *ctl.Supervisor {
	t.Helper()
	cfg := ctl.Config{
		ProbeInterval: 5 * time.Millisecond,
		DownAfter:     3,
		UpAfter:       2,
		Logf:          t.Logf,
	}
	for i := 0; i < h.Shards(); i++ {
		s := h.Shard(i)
		sc := ctl.ShardConfig{Primary: ctl.Node{Addr: s.Addr, Link: h.ClientOptionsFor(s)}}
		if s.Replica != nil {
			sc.Replica = ctl.Node{Addr: s.Replica.Addr, Link: h.ClientOptionsFor(s.Replica)}
		}
		cfg.Shards = append(cfg.Shards, sc)
	}
	if tune != nil {
		tune(&cfg)
	}
	sup, err := ctl.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Close)
	return sup
}

// dialSupervised dials a cluster client that recovers through sup.
func dialSupervised(t *testing.T, h *cluster.Harness, sup *ctl.Supervisor) *cluster.Client {
	t.Helper()
	opts := h.Options()
	opts.Supervisor = sup.Addr()
	opts.FailoverWait = 10 * time.Second
	c, err := cluster.Dial(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func load(t *testing.T, c *cluster.Client, prefix string, n int) map[string]string {
	t.Helper()
	expect := map[string]string{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("%s%04d", prefix, i)
		v := fmt.Sprintf("val-%s-%04d", prefix, i)
		if err := c.Set([]byte(k), []byte(v)); err != nil {
			t.Fatalf("Set %s: %v", k, err)
		}
		expect[k] = v
	}
	return expect
}

func verify(t *testing.T, c *cluster.Client, expect map[string]string) {
	t.Helper()
	for k, v := range expect {
		got, err := c.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get %s: %v", k, err)
		}
		if string(got) != v {
			t.Fatalf("Get %s = %q, want %q", k, got, v)
		}
	}
}

// waitTopo polls f (with a write nudged at shard each round, keeping
// group commits flushing the shipper) until it accepts the topology.
func waitTopo(t *testing.T, sup *ctl.Supervisor, c *cluster.Client, shard int, d time.Duration, what string, f func(ts *ctl.ShardTopo) bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for round := 0; time.Now().Before(deadline); round++ {
		topo := sup.Topology()
		if ts := topo.Shard(shard); ts != nil && f(ts) {
			return
		}
		if c != nil {
			k := fmt.Sprintf("nudge-%d-%06d", shard, round)
			if c.ShardFor([]byte(k)) == shard {
				if err := c.Set([]byte(k), []byte("n")); err != nil {
					t.Logf("nudge Set %s: %v", k, err)
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; topology: %v", what, sup.Topology().Lines())
}

// TestSupervisorOrchestratedFailoverAndReprotect is the control plane's
// acceptance path: kill a primary mid-load; the supervisor (not the
// client) detects it, promotes the replica at epoch 2, publishes the
// new topology, then re-protects the shard by spawning a spare,
// attaching it over CmdReplAttach, and declaring protection when the
// spare catches up. No acknowledged write is lost, and the revenant
// ex-primary is fenced when it returns.
func TestSupervisorOrchestratedFailoverAndReprotect(t *testing.T) {
	h := startPairs(t, cluster.HarnessConfig{Shards: 2, Seed: 41})

	var spareMu sync.Mutex
	spares := map[string]bool{}
	sup := supervisorFor(t, h, func(cfg *ctl.Config) {
		cfg.SpawnSpare = func(shard int) (ctl.Node, error) {
			sp, err := h.StartSpare(shard)
			if err != nil {
				return ctl.Node{}, err
			}
			spareMu.Lock()
			spares[sp.Addr] = true
			spareMu.Unlock()
			return ctl.Node{Addr: sp.Addr, Link: h.ClientOptionsFor(sp)}, nil
		}
	})
	c := dialSupervised(t, h, sup)

	expect := load(t, c, "pre", 200)
	for s := 0; s < h.Shards(); s++ {
		waitTopo(t, sup, c, s, 5*time.Second, "initial protection", func(ts *ctl.ShardTopo) bool {
			return ts.Protected
		})
	}

	promotedAddr := h.Shard(0).Replica.Addr
	h.KillPrimary(0)

	// Writes keep succeeding throughout: ops routed at shard 0 block in
	// recover() until the supervisor publishes the promotion, then retry
	// against the promoted replica. Nothing surfaces to the caller.
	for k, v := range load(t, c, "post", 200) {
		expect[k] = v
	}
	waitTopo(t, sup, c, 0, 10*time.Second, "orchestrated failover", func(ts *ctl.ShardTopo) bool {
		return ts.Primary == promotedAddr && ts.Epoch == 2 && ts.Failovers == 1
	})
	if ep := c.Epoch(0); ep != 2 {
		t.Fatalf("client epoch for shard 0 = %d, want 2", ep)
	}

	// Re-protection without operator action: spare spawned, attached,
	// caught up, shard protected again.
	waitTopo(t, sup, c, 0, 30*time.Second, "re-protection", func(ts *ctl.ShardTopo) bool {
		return ts.Protected && ts.Replica != ""
	})
	ts := sup.Topology().Shard(0)
	spareMu.Lock()
	isSpare := spares[ts.Replica]
	spareMu.Unlock()
	if !isSpare {
		t.Fatalf("re-protection standby %s is not a spawned spare", ts.Replica)
	}

	// Zero acked-write loss across the whole episode.
	verify(t, c, expect)

	// The revenant ex-primary restarts shipping at epoch 1 and is fenced
	// by its own former replica on its first commit.
	sh, err := h.RestartPrimary(0)
	if err != nil {
		t.Fatalf("RestartPrimary: %v", err)
	}
	direct, err := client.Dial(sh.Addr, h.ClientOptionsFor(sh))
	if err != nil {
		t.Fatalf("dial revenant: %v", err)
	}
	defer direct.Close()
	if err := direct.Set([]byte("zombie"), []byte("w")); !errors.Is(err, client.ErrFenced) {
		t.Fatalf("write on revenant ex-primary: %v, want ErrFenced", err)
	}

	// Supervisor bookkeeping surfaced over its stats endpoint.
	var failovers string
	for _, l := range sup.StatsLines() {
		if strings.HasPrefix(l, "ctl_failovers=") {
			failovers = l
		}
	}
	if failovers != "ctl_failovers=1" {
		t.Fatalf("supervisor stats %v, want ctl_failovers=1", sup.StatsLines())
	}
}

// TestSupervisorFlakyProbesNeverPromote is the hysteresis property on
// the wire: a probe link that alternates hit/miss forever — on both
// nodes of the pair — never accumulates DownAfter consecutive misses,
// so the supervisor never promotes and the topology never churns.
func TestSupervisorFlakyProbesNeverPromote(t *testing.T) {
	h := startPairs(t, cluster.HarnessConfig{Shards: 1, Seed: 43})
	var mu sync.Mutex
	counts := map[string]int{}
	sup := supervisorFor(t, h, func(cfg *ctl.Config) {
		cfg.DropProbe = func(shard int, addr string) bool {
			mu.Lock()
			defer mu.Unlock()
			counts[addr]++
			return counts[addr]%2 == 0
		}
	})

	// ~80 probe rounds of sustained flapping.
	time.Sleep(400 * time.Millisecond)
	ts := sup.Topology().Shard(0)
	if ts == nil {
		t.Fatal("no topology for shard 0")
	}
	if ts.Failovers != 0 {
		t.Fatalf("flapping link caused %d failovers, want 0", ts.Failovers)
	}
	if ts.Primary != h.Shard(0).Addr {
		t.Fatalf("flapping link moved the primary to %s", ts.Primary)
	}
	mu.Lock()
	probed := counts[h.Shard(0).Addr]
	mu.Unlock()
	if probed < 20 {
		t.Fatalf("only %d probe attempts observed; probe loop not running?", probed)
	}
}

// TestNodeStatsOnWire checks satellite visibility: every data node
// answers CmdStats with its replication role, epoch, and watermark lag
// lines — the signals the supervisor's lag monitor (and an operator's
// CLI) read — on top of the store's counter table, with no key twice.
func TestNodeStatsOnWire(t *testing.T) {
	h := startPairs(t, cluster.HarnessConfig{Shards: 1, Seed: 47})
	s := h.Shard(0)

	direct, err := client.Dial(s.Addr, h.ClientOptionsFor(s))
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	lines, err := direct.Stats()
	if err != nil {
		t.Fatal(err)
	}
	kv := statsKV(t, lines)
	if kv["repl_role"] != "primary" {
		t.Fatalf("primary repl_role = %q; stats %v", kv["repl_role"], lines)
	}
	for _, want := range []string{"repl_epoch", "repl_acked", "repl_assigned", "repl_lag", "repl_synced", "repl_fenced", "repl_bootstrapping"} {
		if _, ok := kv[want]; !ok {
			t.Fatalf("primary stats missing %s: %v", want, lines)
		}
	}

	rep, err := client.Dial(s.Replica.Addr, h.ClientOptionsFor(s.Replica))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	rlines, err := rep.Stats()
	if err != nil {
		t.Fatal(err)
	}
	rkv := statsKV(t, rlines)
	if rkv["repl_role"] != "replica" {
		t.Fatalf("replica repl_role = %q; stats %v", rkv["repl_role"], rlines)
	}
	if _, ok := rkv["repl_watermark"]; !ok {
		t.Fatalf("replica stats missing repl_watermark: %v", rlines)
	}
}

// statsKV parses CmdStats lines into a map, failing on a repeated key, and
// checks the store keys on the benchmark's compatibility list
// (benchmark/README.md) that every node serves whatever its role.
func statsKV(t *testing.T, lines []string) map[string]string {
	t.Helper()
	kv := map[string]string{}
	for _, l := range lines {
		k, v, _ := strings.Cut(l, "=")
		if _, dup := kv[k]; dup {
			t.Fatalf("stats key %s appears twice: %v", k, lines)
		}
		kv[k] = v
	}
	for _, want := range []string{"decryptions", "epc_faults", "ocalls", "untrusted_bytes", "enclave_bytes",
		"vlog_spill", "vlog_fault", "vlog_gc_copy", "vlog_segments_live"} {
		if _, ok := kv[want]; !ok {
			t.Fatalf("stats missing %s: %v", want, lines)
		}
	}
	return kv
}
