// Command shieldstore-server runs a networked ShieldStore instance: the
// key-value engine inside the simulated enclave, fronted by the remote-
// attested encrypted TCP protocol of §3.2/§6.4.
//
//	shieldstore-server -listen 127.0.0.1:7701 -partitions 4 \
//	    -snapshot-dir /var/lib/shieldstore -snapshot-every 60s
//
// High-availability pairs (DESIGN.md §15) run one process per role:
//
//	shieldstore-server -role replica -listen 127.0.0.1:7802 -seed 7
//	shieldstore-server -role primary -listen 127.0.0.1:7801 -seed 7 \
//	    -replica-addr 127.0.0.1:7802
//
// Primary and replica must share -seed (the sealing/CMAC identity) or no
// shipped frame will verify. The replica serves reads immediately and
// rejects mutations with StatusFenced until promoted (failover/cutover).
//
// Clients connect with cmd/shieldstore-cli or the internal/client package.
//
//ss:host(process entry point; the modeled enclave lives behind server.Serve)
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"shieldstore"
	"shieldstore/internal/client"
	"shieldstore/internal/core"
	"shieldstore/internal/mem"
	"shieldstore/internal/repl"
	"shieldstore/internal/server"
	"shieldstore/internal/sgx"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:7701", "listen address")
		partitions  = flag.Int("partitions", 4, "hash partitions (worker threads)")
		buckets     = flag.Int("buckets", 1<<16, "hash buckets")
		cacheMB     = flag.Int64("cache-mb", 0, "in-enclave plaintext cache (MB, 0=off)")
		snapshotDir = flag.String("snapshot-dir", "", "directory for persistence (empty=in-memory)")
		snapEvery   = flag.Duration("snapshot-every", 60*time.Second, "snapshot period (needs -snapshot-dir)")
		hotcalls    = flag.Bool("hotcalls", true, "use exitless HotCalls for socket syscalls")
		insecure    = flag.Bool("insecure", false, "disable session encryption (testing only)")
		seed        = flag.Uint64("seed", 0, "enclave key seed (0 = default)")
		vlogDir     = flag.String("vlog-dir", "", "tiered storage: encrypted value-log directory (empty=off)")
		spillThresh = flag.Int("spill-threshold", 0, "min value size spilled to the value log (0=default)")
		memBudgetMB = flag.Int64("mem-budget-mb", 0, "in-memory value budget before spilling (MB, 0=always spill eligible values)")
		role        = flag.String("role", "standalone", "node role: standalone, primary, or replica (DESIGN.md §15)")
		replicaAddr = flag.String("replica-addr", "", "replica endpoint the journal ships to (role=primary)")
		epoch       = flag.Uint64("epoch", 1, "initial replication fencing epoch")
	)
	flag.Parse()

	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if bad := ignoredFlags(*role, set); len(bad) > 0 {
		log.Fatalf("shieldstore: -role %s ignores -%s; refusing to start", *role, strings.Join(bad, ", -"))
	}

	switch *role {
	case "standalone":
		// Fall through to the facade path below.
	case "primary", "replica":
		if err := runReplicated(replicatedConfig{
			role:        *role,
			listen:      *listen,
			partitions:  *partitions,
			buckets:     *buckets,
			cacheBytes:  *cacheMB << 20,
			stateDir:    *snapshotDir,
			hotcalls:    *hotcalls,
			insecure:    *insecure,
			seed:        *seed,
			replicaAddr: *replicaAddr,
			epoch:       *epoch,
		}); err != nil {
			log.Fatalf("shieldstore: %v", err)
		}
		return
	default:
		log.Fatalf("shieldstore: unknown -role %q (want standalone, primary, or replica)", *role)
	}

	db, err := shieldstore.Open(shieldstore.Config{
		Partitions:     *partitions,
		Buckets:        *buckets,
		CacheBytes:     *cacheMB << 20,
		SnapshotDir:    *snapshotDir,
		Seed:           *seed,
		VLogDir:        *vlogDir,
		SpillThreshold: *spillThresh,
		MemBudget:      *memBudgetMB << 20,
	})
	if err != nil {
		log.Fatalf("shieldstore: open: %v", err)
	}
	defer db.Close()
	if db.Keys() > 0 {
		log.Printf("restored %d keys from %s", db.Keys(), *snapshotDir)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("shieldstore: listen: %v", err)
	}
	srv := db.Serve(ln, shieldstore.ServeOptions{
		HotCalls: *hotcalls,
		Insecure: *insecure,
	})
	defer srv.Close()
	log.Printf("shieldstore serving on %s (partitions=%d buckets=%d secure=%v hotcalls=%v)",
		srv.Addr(), *partitions, *buckets, !*insecure, *hotcalls)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)

	var ticker *time.Ticker
	var tick <-chan time.Time
	if *snapshotDir != "" {
		ticker = time.NewTicker(*snapEvery)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-tick:
			start := time.Now()
			if err := db.Snapshot(); err != nil {
				log.Printf("snapshot failed: %v", err)
				continue
			}
			log.Printf("snapshot written (%d keys, %.1fms)", db.Keys(),
				float64(time.Since(start).Microseconds())/1000)
		case sig := <-stop:
			log.Printf("%v: shutting down", sig)
			if *snapshotDir != "" {
				if err := db.Snapshot(); err != nil {
					log.Printf("final snapshot failed: %v", err)
				}
			}
			if lines, err := wireStats(srv.Addr().String(), dialOptions(*seed, *insecure)); err != nil {
				log.Printf("stats unavailable: %v", err)
			} else {
				log.Printf("stats: %s", strings.Join(lines, " "))
			}
			return
		}
	}
}

// ignoredByRole lists the flags each role never reads. Setting one is
// refused rather than silently dropped: the partitioned engine behind
// -role primary|replica has no value log, no local snapshots of its own
// and no snapshot ticker, only a replica keeps state in -snapshot-dir,
// and only a primary ships to -replica-addr.
var ignoredByRole = map[string][]string{
	"standalone": {"replica-addr", "epoch"},
	"primary":    {"snapshot-dir", "snapshot-every", "vlog-dir", "spill-threshold", "mem-budget-mb"},
	"replica":    {"replica-addr", "snapshot-every", "vlog-dir", "spill-threshold", "mem-budget-mb"},
}

// ignoredFlags returns, in the order given, the explicitly set flags
// that role would ignore.
func ignoredFlags(role string, set []string) []string {
	var bad []string
	for _, name := range set {
		if slices.Contains(ignoredByRole[role], name) {
			bad = append(bad, name)
		}
	}
	return bad
}

// dialOptions are the client options for any node of this deployment:
// quote verification keys derive from the shared deployment seed (the
// attestation-service stand-in).
func dialOptions(seed uint64, insecure bool) client.Options {
	o := client.Options{Secure: !insecure}
	if !insecure {
		o.Verifier = shieldstore.AttestationService(seed)
		o.Measurement = shieldstore.Measurement()
	}
	return o
}

// wireStats asks the node at addr for its CmdStats answer, so the
// shutdown log prints exactly the table an operator reads on the wire.
func wireStats(addr string, opts client.Options) ([]string, error) {
	opts.Timeout = 5 * time.Second
	c, err := client.Dial(addr, opts)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Stats()
}

// replicatedConfig parameterizes a primary- or replica-role node.
type replicatedConfig struct {
	role        string
	listen      string
	partitions  int
	buckets     int
	cacheBytes  int64
	stateDir    string
	hotcalls    bool
	insecure    bool
	seed        uint64
	replicaAddr string
	epoch       uint64
}

// runReplicated stands up one half of a replication pair (DESIGN.md §15)
// straight on the partitioned engine: a replica wires a repl.Applier into
// the server's Replicate/Promote hooks and stays read-only until
// promoted; a primary tees every partition journal through a
// repl.Shipper so a client ack always implies a replica ack. The frames
// are sealed and MAC-chained end to end, so the replication link needs no
// channel encryption of its own (with -insecure unset it is attested and
// encrypted anyway).
func runReplicated(cfg replicatedConfig) error {
	space := mem.NewSpace(mem.Config{}) // model-default EPC
	enclave := sgx.New(sgx.Config{Space: space, Seed: cfg.seed, Measurement: shieldstore.Measurement()})
	opts := core.Defaults(cfg.buckets)
	opts.CacheBytes = cfg.cacheBytes
	p := core.NewPartitioned(enclave, cfg.partitions, opts)

	scfg := server.Config{
		Engine:       server.CoreEngine{P: p},
		Enclave:      enclave,
		HotCalls:     cfg.hotcalls,
		Secure:       !cfg.insecure,
		Logf:         log.Printf,
		DrainTimeout: time.Second,
		Stats: func() []string {
			return core.FormatStats(enclave, p.Keys(), p.AggregateStats())
		},
		Health: func() []string { return core.FormatHealth(p.Health()) },
	}

	// Link builds the dial options for any same-deployment peer this node
	// is told to ship to — the boot-time -replica-addr or a later
	// CmdReplAttach target from a supervisor (cmd/shieldstore-ctl).
	link := func(string) client.Options { return dialOptions(cfg.seed, cfg.insecure) }

	var shipper *repl.Shipper
	var applier *repl.Applier
	switch cfg.role {
	case "replica":
		if cfg.stateDir != "" {
			if err := os.MkdirAll(cfg.stateDir, 0o700); err != nil {
				return err
			}
		}
		var err error
		applier, err = repl.NewApplier(p, repl.ApplierOptions{Dir: cfg.stateDir, Epoch: cfg.epoch, Logf: log.Printf})
		if err != nil {
			return err
		}
		scfg.Replicate = applier.Apply
		scfg.Promote = applier.Promote
	case "primary":
		if cfg.replicaAddr == "" {
			return fmt.Errorf("-role primary requires -replica-addr")
		}
		shipper = repl.NewShipper(p, repl.ShipperOptions{
			Addr:  cfg.replicaAddr,
			Link:  link(cfg.replicaAddr),
			Epoch: cfg.epoch,
			Logf:  log.Printf,
		})
		for i := 0; i < p.Parts(); i++ {
			p.SetJournal(i, shipper.Tee(i, nil))
		}
	}

	// The role manager (DESIGN.md §17): decides writability (promoted and
	// not fenced), answers CmdReplAttach so a supervisor can re-protect
	// this node by pointing its stream at a fresh spare, and renders the
	// repl_* stats lines the lag monitor reads.
	node := repl.NewNode(p, shipper, applier, repl.NodeOptions{
		Link:  link,
		Epoch: cfg.epoch,
		Logf:  log.Printf,
	})
	scfg.Writable = node.Writable
	scfg.Attach = node.Attach
	baseStats := scfg.Stats
	scfg.Stats = func() []string { return append(baseStats(), node.StatsLines()...) }

	p.Start()
	if shipper != nil {
		shipper.Start()
	}
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		if shipper != nil {
			shipper.Close()
		}
		p.Stop()
		return err
	}
	srv := server.Serve(ln, scfg)
	extra := ""
	if cfg.role == "primary" {
		extra = " -> " + cfg.replicaAddr
	}
	log.Printf("shieldstore %s serving on %s%s (partitions=%d buckets=%d secure=%v epoch=%d)",
		cfg.role, srv.Addr(), extra, cfg.partitions, cfg.buckets, !cfg.insecure, cfg.epoch)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	sig := <-stop
	log.Printf("%v: shutting down", sig)
	srv.Close()
	node.Close() // shipper (boot-time or attached by a supervisor), then applier
	p.Stop()
	if applier != nil {
		log.Printf("replica watermark=%d epoch=%d writable=%v", applier.Watermark(), applier.Epoch(), applier.Writable())
	}
	return nil
}
