//go:build linux

// Command benchmark is the repository's one wall-clock benchmark (see
// README.md beside it): it builds cmd/shieldstore-server, runs it as child
// processes with its real flags, drives it over attested, encrypted
// loopback TCP through internal/client, and prints the end-to-end metrics
// of BENCHMARK.json; a traced pass replays the same request stream
// in-process through the layers' public functions for the per-layer
// metrics.
//
//	go run ./benchmark                         every workload, both passes
//	go run ./benchmark -check                  the same twice, compared against the bounds
//	go run ./benchmark --workload sync_read --seed 7 --seconds 15 --trace 0
//
// The last form is what BENCHMARK.json's command runs: one workload, one
// pass, and one JSON object as the last line of standard output.
//
//ss:host(benchmark driver; plays the remote client, starts the servers and calls the layers from outside any modeled enclave)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metric is one named number the benchmark reports. The two tables below
// are the contract; BENCHMARK.json repeats them and the smoke test checks
// that the two agree.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	clock  string  // host, virtual (internal/sim cycles) or count
}

// failed_ops_share is the eleventh end-to-end figure. It is 0 on a
// healthy run, and a relative bound on 0 means nothing, so it travels as
// "failed"/"attempted" of the result object instead of as a bounded
// metric.
var endToEnd = []metric{
	{"throughput_ops_s", "1/s", "higher", 0.15, "host"},
	{"read_p50_us", "us", "lower", 0.15, "host"},
	{"read_p99_us", "us", "lower", 0.25, "host"},
	{"write_p50_us", "us", "lower", 0.15, "host"},
	{"write_p99_us", "us", "lower", 0.25, "host"},
	{"server_cpu_us_per_op", "us", "lower", 0.15, "host"},
	{"client_cpu_us_per_op", "us", "lower", 0.18, "host"},
	{"server_rss_mb", "MB", "lower", 0.05, "host"},
	{"virtual_ops_s", "1/s", "higher", 0.05, "virtual"},
	{"setup_s", "s", "lower", 0.25, "host"},
}

var perLayer = []metric{
	// Counts at the program's boundary, from the live window.
	{"core.decrypt_per_op", "1/op", "lower", 0, "count"},
	{"mem.epc_fault_per_op", "1/op", "lower", 0, "count"},
	{"sgx.ocall_per_op", "1/op", "lower", 0, "count"},
	{"mem.untrusted_bytes_per_user_byte", "B/B", "lower", 0, "count"},
	{"mem.enclave_bytes_per_user_byte", "B/B", "lower", 0, "count"},
	{"vlog.fault_per_read", "1/op", "lower", 0, "count"},
	{"vlog.spill_per_write", "1/op", "lower", 0, "count"},
	{"vlog.gc_copy_per_write", "1/op", "lower", 0, "count"},
	{"vlog.segments_live", "count", "lower", 0, "count"},
	{"vlog.disk_bytes_per_user_byte", "B/B", "lower", 0, "count"},
	{"repl.writes_per_frame", "1/frame", "higher", 0, "count"},
	{"repl.lag_frames", "count", "lower", 0, "count"},
	// The layer ladder.
	{"net.sync_get_ns", "ns", "lower", 0, "host"},
	{"net.sync_set_ns", "ns", "lower", 0, "host"},
	{"net.burst32_ns_per_op", "ns", "lower", 0, "host"},
	{"net.allocs_per_op", "1/op", "lower", 0, "host"},
	{"net.self_ns", "ns", "lower", 0, "host"},
	{"net.sim_syscall_per_op", "1/op", "lower", 0, "count"},
	{"proto.request_ns", "ns", "lower", 0, "host"},
	{"proto.response_ns", "ns", "lower", 0, "host"},
	{"proto.allocs_per_op", "1/op", "lower", 0, "host"},
	{"db.get_ns", "ns", "lower", 0, "host"},
	{"db.set_ns", "ns", "lower", 0, "host"},
	{"db.self_ns", "ns", "lower", 0, "host"},
	{"dispatch.get_ns", "ns", "lower", 0, "host"},
	{"dispatch.set_ns", "ns", "lower", 0, "host"},
	{"dispatch.self_ns", "ns", "lower", 0, "host"},
	{"dispatch.burst32_ns_per_op", "ns", "lower", 0, "host"},
	{"dispatch.ops_per_drain", "1/drain", "higher", 0, "count"},
	{"repl.acked_set_ns", "ns", "lower", 0, "host"},
	{"repl.self_ns", "ns", "lower", 0, "host"},
	{"core.get_ns", "ns", "lower", 0, "host"},
	{"core.set_ns", "ns", "lower", 0, "host"},
	{"core.get_allocs", "1/op", "lower", 0, "host"},
	{"core.set_allocs", "1/op", "lower", 0, "host"},
	{"core.get_vcycles", "cycles", "lower", 0, "virtual"},
	{"core.set_vcycles", "cycles", "lower", 0, "virtual"},
	{"core.entry_visited_per_get", "1/op", "lower", 0, "count"},
	{"core.cmac_per_get", "1/op", "lower", 0, "count"},
	{"core.cache_hit_ratio", "ratio", "higher", 0, "count"},
	{"entry.seal_ns", "ns", "lower", 0, "host"},
	{"entry.open_ns", "ns", "lower", 0, "host"},
	{"cmac.tag_ns", "ns", "lower", 0, "host"},
	{"vlog.append_ns", "ns", "lower", 0, "host"},
	{"vlog.read_ns", "ns", "lower", 0, "host"},
	{"persist.wal_set_ns", "ns", "lower", 0, "host"},
	{"persist.wal_bytes_per_user_byte", "B/B", "lower", 0, "count"},
	{"persist.snapshot_ms", "ms", "lower", 0, "host"},
	{"persist.restore_ms", "ms", "lower", 0, "host"},
	{"trace.overhead_ns_per_op", "ns", "lower", 0, "host"},
}

// exactMetrics are the traced-pass numbers that come from sim.Meter
// counters or file sizes along a single-goroutine replay, and so repeat
// bit for bit for a fixed seed on any host.
var exactMetrics = []string{
	"net.sim_syscall_per_op",
	"dispatch.ops_per_drain",
	"core.get_vcycles",
	"core.set_vcycles",
	"core.entry_visited_per_get",
	"core.cmac_per_get",
	"core.cache_hit_ratio",
	"persist.wal_bytes_per_user_byte",
}

// absent is how the result object carries a per-layer metric the
// workload's server mode or ladder does not have; every measured value is
// non-negative. The text output prints the word instead.
const absent = -1.0

// result is one workload's numbers.
type result struct {
	workload          string
	endToEnd          map[string]float64 // nil when only the traced pass ran
	perLayer          map[string]float64 // nil when only the untraced pass ran
	attempted, failed uint64
	note              string // sample counts and set-up times, for the text output
}

// runWorkload runs the untraced pass, the traced pass, or both.
func runWorkload(ctx context.Context, w *workload, cfg *settings, untraced, traced bool) (*result, error) {
	res := &result{workload: w.name}
	lcfg := *cfg
	if !untraced {
		lcfg.setups = 1 // setup_s is not reported, so set up once
	}
	lr, err := runLive(ctx, w, &lcfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.attempted, res.failed = lr.attempted, lr.failed
	res.note = fmt.Sprintf("probe samples: %d reads, %d writes; set-ups: %.3f s", lr.readSamples, lr.writeSamples, lr.setups)
	if untraced {
		res.endToEnd = lr.endToEnd
	}
	if traced {
		res.perLayer = lr.boundary
		ld, err := runLadder(ctx, w, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s ladder: %w", w.name, err)
		}
		for name, v := range ld.metrics {
			res.perLayer[name] = v
		}
		res.attempted += ld.attempted
		res.failed += ld.failed
	}
	return res, nil
}

// print writes the result as text: every metric by name, with its unit.
func (r *result) print() {
	fmt.Printf("workload %s: %d ops attempted, %d failed, failed_ops_share %.3g\n",
		r.workload, r.attempted, r.failed, float64(r.failed)/float64(r.attempted))
	fmt.Printf("  %s\n", r.note)
	if r.endToEnd != nil {
		for _, m := range endToEnd {
			fmt.Printf("  %-36s %14.4f %-8s %s clock, %s is better, bound %.0f%%\n",
				m.name, r.endToEnd[m.name], m.unit, m.clock, m.better, m.bound*100)
		}
	}
	if r.perLayer == nil {
		return
	}
	for _, m := range perLayer {
		if v, ok := r.perLayer[m.name]; ok {
			fmt.Printf("  %-36s %14.4f %-8s %s\n", m.name, v, m.unit, m.clock)
		} else {
			fmt.Printf("  %-36s %14s %-8s\n", m.name, "absent", m.unit)
		}
	}
}

// contractLine renders the result object the benchmark contract asks for.
func (r *result) contractLine() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if r.endToEnd != nil {
		for _, m := range endToEnd {
			metrics[m.name] = value{r.endToEnd[m.name], m.unit}
		}
	}
	if r.perLayer != nil {
		for _, m := range perLayer {
			v, ok := r.perLayer[m.name]
			if !ok {
				v = absent
			}
			metrics[m.name] = value{v, m.unit}
		}
	}
	for name, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return "", fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	return string(b), err
}

// runSet runs both passes of every workload and prints them.
func runSet(ctx context.Context, cfg *settings) ([]*result, error) {
	var set []*result
	for i := range workloads {
		r, err := runWorkload(ctx, &workloads[i], cfg, true, true)
		if err != nil {
			return nil, err
		}
		r.print()
		set = append(set, r)
	}
	return set, nil
}

// compare prints both sets side by side and reports whether every
// end-to-end metric of the second is within its bound of the first and
// every exact-count metric is identical.
func compare(a, b []*result) bool {
	ok := true
	fmt.Println("check: two sets of runs of the same code")
	for i := range a {
		for _, m := range endToEnd {
			x, y := a[i].endToEnd[m.name], b[i].endToEnd[m.name]
			worse := (y - x) / x
			if m.better == "higher" {
				worse = (x - y) / x
			}
			verdict := "ok"
			if worse > m.bound {
				verdict, ok = "EXCEEDS BOUND", false
			}
			fmt.Printf("  %-16s %-22s first %14.4f second %14.4f worse by %+7.2f%% (bound %.0f%%)  %s\n",
				a[i].workload, m.name, x, y, worse*100, m.bound*100, verdict)
		}
		for _, name := range exactMetrics {
			x, xok := a[i].perLayer[name]
			y, yok := b[i].perLayer[name]
			if xok != yok || x != y {
				fmt.Printf("  %-16s %-22s %v != %v  NOT IDENTICAL\n", a[i].workload, name, x, y)
				ok = false
			}
		}
	}
	return ok
}

func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // a checkout without git still benchmarks
	}
	return strings.TrimSpace(string(out))
}

func run() error {
	var (
		name    = flag.String("workload", "", "run one workload and end with the result object (default: all, as text)")
		seed    = flag.Uint64("seed", 42, "seed of the request streams")
		seconds = flag.Int("seconds", 15, "length of the measured window")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		check   = flag.Bool("check", false, "run every workload twice and compare the two sets against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		flag.Usage()
		return errors.New("bad arguments")
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	root, err := moduleRoot()
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	bin, took, err := buildServer(ctx, root, filepath.Join(build, "bin"))
	if err != nil {
		return err
	}
	cfg := &settings{
		seed:      *seed,
		keys:      100_000,
		warmup:    3 * time.Second,
		window:    time.Duration(*seconds) * time.Second,
		slice:     250 * time.Millisecond,
		setups:    3,
		ladderOps: 20_000,
		bin:       bin,
		tmpRoot:   filepath.Join(build, "tmp"),
		outDir:    filepath.Join(root, "benchmark", "out"),
		corruptID: -1,
	}
	fmt.Printf("benchmark: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d window=%ds server build %.1fs\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(root), *seed, *seconds, took.Seconds())

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
		r, err := runWorkload(ctx, w, cfg, *trace == 0, *trace == 1)
		if err != nil {
			return err
		}
		r.print()
		line, err := r.contractLine()
		if err != nil {
			return err
		}
		fmt.Println(line)
		if r.failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed", r.workload, r.failed, r.attempted)
		}
		return nil
	}

	first, err := runSet(ctx, cfg)
	if err != nil {
		return err
	}
	sets := [][]*result{first}
	if *check {
		second, err := runSet(ctx, cfg)
		if err != nil {
			return err
		}
		sets = append(sets, second)
		if !compare(first, second) {
			return errors.New("check: the two sets disagree")
		}
	}
	for _, set := range sets {
		for _, r := range set {
			if r.failed > 0 {
				return fmt.Errorf("%s: %d of %d ops failed", r.workload, r.failed, r.attempted)
			}
		}
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
