// The cluster harness: launches N in-process shieldstore shard servers —
// each its own simulated enclave, partitioned worker pool, optional
// self-healing plane, and pipelined TCP front-end — for tests and
// benchmarks. A harness shard is exactly what one shieldstore-server
// process would run; only the process boundary is elided.
package cluster

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"shieldstore/internal/client"
	"shieldstore/internal/core"
	"shieldstore/internal/fault"
	"shieldstore/internal/mem"
	"shieldstore/internal/persist"
	"shieldstore/internal/repl"
	"shieldstore/internal/server"
	"shieldstore/internal/sgx"
)

// HarnessConfig sizes an in-process cluster.
type HarnessConfig struct {
	// Shards is the shard (enclave process) count; default 4.
	Shards int
	// Partitions is the per-shard worker partition count; default 4.
	Partitions int
	// Buckets is the per-shard hash bucket count; default 1<<12.
	Buckets int
	// MACHashes is the per-shard MAC hash count; default Buckets/2.
	MACHashes int
	// CacheBytes is the per-shard in-enclave plaintext cache budget.
	CacheBytes int64
	// EPCBytes overrides each shard enclave's simulated EPC (0 = 32 MB).
	EPCBytes int64
	// Secure enables attestation + channel encryption per shard.
	Secure bool
	// Seed derives per-shard enclave key material (shard i uses Seed+i+1).
	Seed uint64
	// SelfHeal attaches a quarantine latch, background scrubber and
	// persist.Healer to every shard (requires Dir).
	SelfHeal bool
	// ScrubSets bounds the per-wakeup scrub increment (default 2).
	ScrubSets int
	// Dir roots the healers' snapshot+journal state (required by SelfHeal).
	Dir string
	// VNodes, Conns, RingSeed and the retry policies feed Options().
	VNodes   int
	Conns    int
	RingSeed uint64
	// Retry is the per-connection policy (single-key ops, reconnects).
	Retry client.RetryPolicy
	// ClusterRetry is the scatter-gather per-op rebuilding policy.
	ClusterRetry client.RetryPolicy
	// PipelineDepth bounds per-connection in-flight requests server-side.
	PipelineDepth int
	// Replicas stands every shard up as a primary/replica pair: the replica
	// runs the same engine under a repl.Applier (read-only until promoted),
	// and the primary's journals are teed through a repl.Shipper so every
	// acknowledged mutation is also acknowledged by the replica (DESIGN.md
	// §15). Options() then carries the replica endpoints so the cluster
	// client can fail over.
	Replicas bool
	// ReplFaults, when set, arms the flaky-replication-link injection
	// points (fault.PointReplDrop/Dup/Reorder) on every shard's shipper.
	ReplFaults *fault.Plane
	// BeforeSwap, when set, runs inside each shard healer's rebuild window
	// just before the rebuilt partition is swapped back in (tests use it to
	// hold a shard authoritatively mid-rebuild).
	BeforeSwap func(shard, part int)
	// Logf sinks server/healer logs (default: discard).
	Logf func(format string, args ...any)
}

func (c HarnessConfig) withDefaults() HarnessConfig {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Partitions <= 0 {
		c.Partitions = 4
	}
	if c.Buckets <= 0 {
		c.Buckets = 1 << 12
	}
	if c.MACHashes <= 0 {
		c.MACHashes = max(1, c.Buckets/2)
	}
	if c.EPCBytes <= 0 {
		c.EPCBytes = 32 << 20
	}
	if c.ScrubSets <= 0 {
		c.ScrubSets = 2
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// HarnessMeasurement is the enclave code identity harness shards report.
func HarnessMeasurement() [32]byte {
	var m [32]byte
	copy(m[:], "shieldstore-cluster-shard-v1")
	return m
}

// Shard is one running in-process shard server. In Replicas mode it is
// the primary of a pair: Shipper streams its journal to Replica, whose
// Applier replays it.
type Shard struct {
	Enclave *sgx.Enclave
	Pool    *core.Partitioned
	Healer  *persist.Healer // nil unless SelfHeal
	Server  *server.Server
	Addr    string
	Node    *repl.Node    // replication role manager (always set)
	Shipper *repl.Shipper // nil unless Replicas (primary role)
	Applier *repl.Applier // nil unless this node is replica-role
	Replica *Shard        // nil unless Replicas (the standby node)
	killed  bool          // torn down by Kill/KillPrimary; skip at Close
}

// close tears one node down in dependency order: front-end, healer,
// replication engines (the shipper drives RunCtl, the applier holds a
// chain key), then the worker pool.
func (s *Shard) close() {
	s.Server.Close()
	if s.Healer != nil {
		s.Healer.Close()
	}
	if s.Node != nil {
		s.Node.Close() // shipper (boot-time or attached later) then applier
	} else {
		if s.Shipper != nil {
			s.Shipper.Close()
		}
		if s.Applier != nil {
			s.Applier.Close()
		}
	}
	s.Pool.Stop()
}

// Harness is a running in-process cluster.
type Harness struct {
	cfg    HarnessConfig
	shards []*Shard
	spares []*Shard // StartSpare nodes (migration targets)
}

// StartHarness builds and starts every shard. On error, shards already
// started are torn down.
func StartHarness(cfg HarnessConfig) (*Harness, error) {
	cfg = cfg.withDefaults()
	if cfg.SelfHeal && cfg.Dir == "" {
		return nil, fmt.Errorf("cluster harness: SelfHeal requires Dir")
	}
	h := &Harness{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		sh, err := h.startShard(i)
		if err != nil {
			h.Close()
			return nil, fmt.Errorf("cluster harness: shard %d: %w", i, err)
		}
		h.shards = append(h.shards, sh)
	}
	return h, nil
}

// startShard boots one shard. In Replicas mode the replica node comes up
// first (the primary's shipper needs its address), then the primary.
func (h *Harness) startShard(i int) (*Shard, error) {
	if !h.cfg.Replicas {
		return h.startPrimary(i, nil)
	}
	rep, err := h.startReplica(i, "replica")
	if err != nil {
		return nil, err
	}
	sh, err := h.startPrimary(i, rep)
	if err != nil {
		rep.close()
		return nil, err
	}
	sh.Replica = rep
	return sh, nil
}

// newEnclave builds shard i's simulated enclave. Primary and replica of a
// pair share the Seed: sealing and CMAC keys must match or no shipped
// frame would unseal or chain-verify on the replica.
func (h *Harness) newEnclave(i int) *sgx.Enclave {
	space := mem.NewSpace(mem.Config{EPCBytes: h.cfg.EPCBytes})
	return sgx.New(sgx.Config{
		Space:       space,
		Seed:        h.cfg.Seed + uint64(i) + 1, // each shard pair is its own enclave identity
		Measurement: HarnessMeasurement(),
	})
}

// newPool builds shard i's partitioned engine.
func (h *Harness) newPool(enclave *sgx.Enclave) *core.Partitioned {
	opts := core.Defaults(h.cfg.Buckets)
	opts.MACHashes = h.cfg.MACHashes
	opts.CacheBytes = h.cfg.CacheBytes
	opts.Quarantine = h.cfg.SelfHeal
	return core.NewPartitioned(enclave, h.cfg.Partitions, opts)
}

// serverConfig is the shared front-end configuration for any harness node.
func (h *Harness) serverConfig(enclave *sgx.Enclave, p *core.Partitioned) server.Config {
	cfg := h.cfg
	return server.Config{
		Engine:        server.CoreEngine{P: p},
		Enclave:       enclave,
		HotCalls:      true,
		Secure:        cfg.Secure,
		Logf:          cfg.Logf,
		PipelineDepth: cfg.PipelineDepth,
		DrainTimeout:  time.Second,
		Stats: func() []string {
			return core.FormatStats(enclave, p.Keys(), p.AggregateStats())
		},
		Health: func() []string { return core.FormatHealth(p.Health()) },
	}
}

// linkFor builds the CmdReplAttach dial hook for a node with this
// enclave identity: same-shard peers (replica, spares) share the
// enclave seed, so the node's own enclave verifies any peer's quote.
func (h *Harness) linkFor(enclave *sgx.Enclave) func(string) client.Options {
	return func(string) client.Options {
		copts := client.Options{Secure: h.cfg.Secure, Retry: h.cfg.Retry}
		if h.cfg.Secure {
			copts.Verifier = enclave
			copts.Measurement = HarnessMeasurement()
		}
		return copts
	}
}

// wireNode hangs a shard's replication role manager off its server
// config: writability, CmdReplAttach, and the repl_* stats lines.
func wireNode(scfg *server.Config, node *repl.Node) {
	scfg.Writable = node.Writable
	scfg.Attach = node.Attach
	base := scfg.Stats
	scfg.Stats = func() []string { return append(base(), node.StatsLines()...) }
}

// startReplica boots shard i's standby node: same enclave identity as the
// primary, a repl.Applier wired into the server's Replicate/Promote
// hooks, and Writable gated on promotion. No healer — a replica that
// loses state simply re-syncs from the primary's bootstrap stream.
func (h *Harness) startReplica(i int, suffix string) (*Shard, error) {
	cfg := h.cfg
	enclave := h.newEnclave(i)
	p := h.newPool(enclave)
	aopts := repl.ApplierOptions{Logf: cfg.Logf}
	if cfg.Dir != "" {
		dir := filepath.Join(cfg.Dir, fmt.Sprintf("shard-%02d-%s", i, suffix))
		if err := os.MkdirAll(dir, 0o700); err != nil {
			return nil, err
		}
		aopts.Dir = dir
	}
	applier, err := repl.NewApplier(p, aopts)
	if err != nil {
		return nil, err
	}
	p.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.Stop()
		return nil, err
	}
	node := repl.NewNode(p, nil, applier, repl.NodeOptions{
		Link:   h.linkFor(enclave),
		Faults: cfg.ReplFaults,
		Logf:   cfg.Logf,
	})
	scfg := h.serverConfig(enclave, p)
	scfg.Replicate = applier.Apply
	scfg.Promote = applier.Promote
	wireNode(&scfg, node)
	srv := server.Serve(ln, scfg)
	return &Shard{Enclave: enclave, Pool: p, Server: srv, Addr: srv.Addr().String(), Node: node, Applier: applier}, nil
}

// startPrimary boots shard i's serving node: enclave, partitioned pool,
// optional healer, optional replication shipper (rep != nil), server.
func (h *Harness) startPrimary(i int, rep *Shard) (*Shard, error) {
	cfg := h.cfg
	enclave := h.newEnclave(i)
	p := h.newPool(enclave)

	var shipper *repl.Shipper
	if rep != nil {
		shipper = repl.NewShipper(p, repl.ShipperOptions{
			Addr:   rep.Addr,
			Link:   h.ClientOptionsFor(rep),
			Faults: cfg.ReplFaults,
			Logf:   cfg.Logf,
		})
		if !cfg.SelfHeal {
			// No healer to tee through: wire the shipper as each
			// partition's journal directly (replication without local WAL).
			for j := 0; j < p.Parts(); j++ {
				p.SetJournal(j, shipper.Tee(j, nil))
			}
		}
	}

	var healer *persist.Healer
	if cfg.SelfHeal {
		p.EnableScrub(cfg.ScrubSets)
		dir := filepath.Join(cfg.Dir, fmt.Sprintf("shard-%02d", i))
		if err := os.MkdirAll(dir, 0o700); err != nil {
			return nil, err
		}
		hopts := persist.HealerOptions{Logf: cfg.Logf}
		if cfg.BeforeSwap != nil {
			hopts.BeforeSwap = func(part int) { cfg.BeforeSwap(i, part) }
		}
		if shipper != nil {
			hopts.WrapJournal = func(part int, j core.Journal) core.Journal {
				return shipper.Tee(part, j)
			}
		}
		var err error
		healer, err = persist.NewHealer(p, dir, hopts)
		if err != nil {
			return nil, err
		}
	}
	p.Start()
	if shipper != nil {
		shipper.Start()
	}
	if healer != nil {
		healer.Start()
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if healer != nil {
			healer.Close()
		}
		if shipper != nil {
			shipper.Close()
		}
		p.Stop()
		return nil, err
	}
	// A primary fenced out by its promoted replica must stop taking
	// writes — reads stay up (they may be stale; the client has moved).
	// Node.Writable enforces exactly that through the shipper.
	node := repl.NewNode(p, shipper, nil, repl.NodeOptions{
		Link:   h.linkFor(enclave),
		Faults: cfg.ReplFaults,
		Logf:   cfg.Logf,
	})
	scfg := h.serverConfig(enclave, p)
	wireNode(&scfg, node)
	srv := server.Serve(ln, scfg)
	return &Shard{Enclave: enclave, Pool: p, Healer: healer, Server: srv, Addr: srv.Addr().String(), Node: node, Shipper: shipper}, nil
}

// Shard returns shard i.
func (h *Harness) Shard(i int) *Shard { return h.shards[i] }

// Shards returns the running shard count.
func (h *Harness) Shards() int { return len(h.shards) }

// Addrs returns every shard's listen address in shard order.
func (h *Harness) Addrs() []string {
	out := make([]string, len(h.shards))
	for i, s := range h.shards {
		out[i] = s.Addr
	}
	return out
}

// ClientOptions builds the per-shard connection options: when Secure,
// shard i's own enclave plays its attestation service (the simulation's
// stand-in for IAS, as in the single-node tests).
func (h *Harness) ClientOptions(i int) client.Options {
	return h.ClientOptionsFor(h.shards[i])
}

// ClientOptionsFor builds connection options for an arbitrary harness
// node (a replica, a spare) — same attestation scheme as ClientOptions.
func (h *Harness) ClientOptionsFor(s *Shard) client.Options {
	copts := client.Options{Secure: h.cfg.Secure, Retry: h.cfg.Retry}
	if h.cfg.Secure {
		copts.Verifier = s.Enclave
		copts.Measurement = HarnessMeasurement()
	}
	return copts
}

// Options assembles the cluster client configuration for this harness.
// In Replicas mode each spec carries its replica endpoint so the client
// can fail over.
func (h *Harness) Options() Options {
	specs := make([]ShardSpec, len(h.shards))
	for i, s := range h.shards {
		specs[i] = ShardSpec{Addr: s.Addr, Client: h.ClientOptions(i)}
		if s.Replica != nil {
			specs[i].ReplicaAddr = s.Replica.Addr
			specs[i].ReplicaClient = h.ClientOptionsFor(s.Replica)
		}
	}
	return Options{
		Shards:   specs,
		VNodes:   h.cfg.VNodes,
		Conns:    h.cfg.Conns,
		RingSeed: h.cfg.RingSeed,
		Retry:    h.cfg.ClusterRetry,
	}
}

// Kill tears down an arbitrary harness node by pointer — a primary, a
// replica, or a spare — marking it so Close skips it. The chaos tests'
// crash switch for supervisor-managed topologies, where the boot-time
// pairing no longer describes who serves what.
func (h *Harness) Kill(s *Shard) {
	if s == nil || s.killed {
		return
	}
	s.killed = true
	s.close()
}

// KillPrimary tears down shard i's primary node — server, healer,
// shipper, worker pool — leaving its replica serving. The failover tests'
// crash switch.
func (h *Harness) KillPrimary(i int) {
	s := h.shards[i]
	if s.killed {
		return
	}
	rep := s.Replica
	s.Replica = nil // keep the standby out of the primary's teardown
	h.Kill(s)
	s.Replica = rep
}

// KillReplica tears down shard i's boot-time standby, leaving the
// primary serving unprotected until a spare is attached.
func (h *Harness) KillReplica(i int) {
	h.Kill(h.shards[i].Replica)
}

// RestartPrimary brings shard i's killed primary back on a fresh
// listener, still shipping to the original replica. If that replica was
// promoted meanwhile, the restarted node's first shipped commit comes
// back StatusFenced and the node latches read-only — the fencing path the
// failover tests exercise. With SelfHeal the node restores its data from
// its snapshot+journal dir; otherwise it restarts empty.
func (h *Harness) RestartPrimary(i int) (*Shard, error) {
	old := h.shards[i]
	if !old.killed {
		return nil, fmt.Errorf("cluster harness: shard %d primary still running", i)
	}
	sh, err := h.startPrimary(i, old.Replica)
	if err != nil {
		return nil, err
	}
	sh.Replica = old.Replica
	h.shards[i] = sh
	return sh, nil
}

// StartSpare boots an empty replica-role node sharing shard i's enclave
// identity — the target of a live migration (repl.Shipper.MigrateTo +
// Client.Cutover). The spare is owned by the harness and closed with it.
func (h *Harness) StartSpare(i int) (*Shard, error) {
	sp, err := h.startReplica(i, fmt.Sprintf("spare-%02d", len(h.spares)))
	if err != nil {
		return nil, err
	}
	h.spares = append(h.spares, sp)
	return sp, nil
}

// Close tears every node down: front-end first, then healer and shipper,
// then the worker pool (healer and shipper drive RunCtl against the live
// pool, so order matters). Replicas close after their primaries.
func (h *Harness) Close() {
	for _, s := range h.shards {
		if !s.killed {
			s.close()
		}
		if s.Replica != nil && !s.Replica.killed {
			s.Replica.close()
		}
	}
	for _, sp := range h.spares {
		if !sp.killed {
			sp.close()
		}
	}
	h.shards, h.spares = nil, nil
}
