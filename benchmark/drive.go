//go:build linux

package main

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"shieldstore/internal/client"
)

// burst is the number of requests the load connection keeps in flight
// (one client.Pipeline flush) and the batch size of preload and read-back.
const burst = 32

// settings size a run. The defaults are the benchmark; only the smoke
// test shrinks them.
type settings struct {
	seed      uint64        // of the request streams; the servers' key seed is deploymentSeed
	keys      int           // preloaded keys; even, so every key has a write-class neighbour
	warmup    time.Duration // load applied before the window opens
	window    time.Duration // measured interval
	slice     time.Duration // throughput is the median over window/slice slices
	setups    int           // how many times set-up runs; setup_s is their median
	ladderOps int           // ops the traced pass replays per rung
	bin       string        // shieldstore-server binary
	tmpRoot   string        // server state and ladder files live under here
	outDir    string        // span files are written here
	corruptID int           // key preloaded with a wrong value, -1 for none (smoke test)
}

// conn is one client connection, the request stream it issues and what it
// knows about every key's version.
type conn struct {
	cl    *client.Client
	st    *stream
	w     *workload
	keys  [][]byte
	class int
	// version[id] is the last version this connection wrote and had
	// acknowledged for a key of its own class, and the highest version it
	// has read for any other key.
	version []uint64
	val     []byte // value being written
	scratch []byte // value being checked

	attempted, failed uint64
	// ops acknowledged in each slice of the window, and their split
	slices        []uint64
	reads, writes uint64
}

func newConn(cl *client.Client, w *workload, cfg *settings, keys [][]byte, class int) *conn {
	c := &conn{
		cl: cl, w: w, keys: keys, class: class,
		st:      newStream(w, cfg.keys, cfg.seed, class),
		version: make([]uint64, cfg.keys),
		val:     make([]byte, w.valueSize),
		scratch: make([]byte, w.valueSize),
		slices:  make([]uint64, cfg.window/cfg.slice),
	}
	for i := range c.version {
		c.version[i] = 1 // preload writes version 1 of every key
	}
	return c
}

// checkGet verifies one get reply. want is the version program order
// demands for a key of the connection's own class.
func (c *conn) checkGet(id int, val []byte, err error, want uint64) {
	if err != nil {
		c.failed++
		return
	}
	got, ok := valueVersion(val, id, c.w.valueSize, c.scratch)
	own := id%2 == c.class
	switch {
	case !ok, own && got != want, !own && got < c.version[id]:
		c.failed++
	case !own:
		c.version[id] = got
	}
}

// count books acknowledged ops that completed at end into the window's
// slices; ops outside the window are not measured.
func (c *conn) count(windowStart int64, end time.Time, slice time.Duration, reads, writes uint64) {
	if windowStart == 0 {
		return
	}
	i := (end.UnixNano() - windowStart) / int64(slice)
	if i < 0 || i >= int64(len(c.slices)) {
		return
	}
	c.slices[i] += reads + writes
	c.reads += reads
	c.writes += writes
}

// transport reports whether err ends the run: the connection is gone, as
// opposed to the server answering with an error status, which is a failed
// op. A reply the client could not decode is a failed op too; it poisons
// the connection, so the next op ends the run.
func transport(err error) bool { return errors.Is(err, client.ErrConnection) }

// preload stores version 1 of every key through pipelined bursts and
// returns once each is acknowledged.
func preload(ctx context.Context, cl *client.Client, w *workload, cfg *settings, keys [][]byte) (attempted, failed uint64, err error) {
	pipe := cl.Pipeline()
	val := make([]byte, w.valueSize)
	for id := 0; id < cfg.keys; {
		if err := ctx.Err(); err != nil {
			return attempted, failed, err
		}
		for ; id < cfg.keys && pipe.Len() < burst; id++ {
			val = makeValue(val, id, 1, w.valueSize)
			if id == cfg.corruptID {
				val[len(val)-1] ^= 0xff
			}
			pipe.Set(keys[id], val)
		}
		res, err := pipe.Flush()
		if err != nil {
			return attempted, failed, fmt.Errorf("preload: %w", err)
		}
		for _, r := range res {
			attempted++
			if r.Err != nil {
				failed++
			}
		}
	}
	return attempted, failed, nil
}

// readBack fetches every key and checks it carries the last version its
// writer had acknowledged: a lower one is a lost acked write.
func readBack(ctx context.Context, cl *client.Client, w *workload, keys [][]byte, want func(id int) uint64) (attempted, failed uint64, err error) {
	pipe := cl.Pipeline()
	scratch := make([]byte, w.valueSize)
	for id := 0; id < len(keys); {
		if err := ctx.Err(); err != nil {
			return attempted, failed, err
		}
		first := id
		for ; id < len(keys) && pipe.Len() < burst; id++ {
			pipe.Get(keys[id])
		}
		res, err := pipe.Flush()
		if err != nil {
			return attempted, failed, fmt.Errorf("read-back: %w", err)
		}
		for i, r := range res {
			attempted++
			got, ok := valueVersion(r.Value, first+i, w.valueSize, scratch)
			if r.Err != nil || !ok || got != want(first+i) {
				failed++
			}
		}
	}
	return attempted, failed, nil
}

// window is what the probe goroutine, which owns the clock, tells the
// load goroutine.
type window struct {
	start atomic.Int64 // UnixNano at which the window opened, 0 before
	stop  atomic.Bool
}

// runLoad issues bursts back to back until the window closes.
func (c *conn) runLoad(win *window, slice time.Duration) error {
	pipe := c.cl.Pipeline()
	var ids [burst]int
	var wants [burst]uint64
	var isWrite [burst]bool
	for !win.stop.Load() {
		var reads, writes uint64
		for i := range ids {
			o := c.st.next()
			ids[i], isWrite[i] = o.id, o.write
			if o.write {
				// Bumped at queue time: a later get of the burst must
				// already see it, because the server keeps per-key order.
				c.version[o.id]++
				pipe.Set(c.keys[o.id], makeValue(c.val, o.id, c.version[o.id], c.w.valueSize))
				writes++
			} else {
				wants[i] = c.version[o.id]
				pipe.Get(c.keys[o.id])
				reads++
			}
		}
		res, err := pipe.Flush()
		if err != nil {
			return fmt.Errorf("load connection: %w", err)
		}
		end := time.Now()
		for i, r := range res {
			c.attempted++
			if isWrite[i] {
				if r.Err != nil {
					c.failed++
				}
			} else {
				c.checkGet(ids[i], r.Value, r.Err, wants[i])
			}
		}
		c.count(win.start.Load(), end, slice, reads, writes)
	}
	return nil
}

// snapshot is the state read at each edge of the window.
type snapshot struct {
	stats     map[string]float64 // CmdStats lines with a numeric value
	serverCPU float64
	clientCPU float64
}

func takeSnapshot(cl *client.Client, servers *cluster) (snapshot, error) {
	lines, err := cl.Stats()
	if err != nil {
		return snapshot{}, fmt.Errorf("stats: %w", err)
	}
	s := snapshot{stats: map[string]float64{}, clientCPU: selfCPUSeconds()}
	for _, line := range lines {
		name, value, _ := strings.Cut(line, "=")
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			s.stats[name] = v
		}
	}
	s.serverCPU, err = servers.cpuSeconds()
	return s, err
}

// probeResult is what the probe connection measured.
type probeResult struct {
	readNs, writeNs []int64 // latency of every get / set in the window, sorted
	before, after   snapshot
}

// runProbe issues one synchronous op at a time for warm-up plus window.
// It owns the clock: it takes the opening snapshot and opens the window
// when warm-up is over, and takes the closing snapshot and tells the load
// connection to stop when the window is over.
func (c *conn) runProbe(ctx context.Context, servers *cluster, cfg *settings, win *window) (probeResult, error) {
	defer win.stop.Store(true) // on every path, or the load goroutine never ends
	var res probeResult
	// Room for 100k ops/s, several times what one synchronous connection
	// reaches, so the slices never grow inside the window.
	room := int(cfg.window.Seconds()*100e3) + 1
	res.readNs = make([]int64, 0, room)
	res.writeNs = make([]int64, 0, room)

	warmEnd := time.Now().Add(cfg.warmup)
	var winStart, winEnd time.Time
	for {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		t0 := time.Now()
		switch {
		case winStart.IsZero() && !t0.Before(warmEnd):
			var err error
			if res.before, err = takeSnapshot(c.cl, servers); err != nil {
				return res, err
			}
			winStart = time.Now()
			winEnd = winStart.Add(cfg.window)
			win.start.Store(winStart.UnixNano())
			t0 = winStart
		case !winStart.IsZero() && !t0.Before(winEnd):
			var err error
			res.after, err = takeSnapshot(c.cl, servers)
			slices.Sort(res.readNs)
			slices.Sort(res.writeNs)
			return res, err
		}

		o := c.st.next()
		key := c.keys[o.id]
		c.attempted++
		var d time.Duration
		if o.write {
			val := makeValue(c.val, o.id, c.version[o.id]+1, c.w.valueSize)
			t0 = time.Now() // value generation is the generator's cost, not the caller's wait
			err := c.cl.Set(key, val)
			d = time.Since(t0)
			switch {
			case transport(err):
				return res, fmt.Errorf("probe connection: %w", err)
			case err != nil:
				c.failed++
			default:
				c.version[o.id]++
			}
		} else {
			val, err := c.cl.Get(key)
			d = time.Since(t0)
			if transport(err) {
				return res, fmt.Errorf("probe connection: %w", err)
			}
			c.checkGet(o.id, val, err, c.version[o.id])
		}
		if winStart.IsZero() {
			continue
		}
		if o.write {
			res.writeNs = append(res.writeNs, int64(d))
			c.count(winStart.UnixNano(), t0.Add(d), cfg.slice, 0, 1)
		} else {
			res.readNs = append(res.readNs, int64(d))
			c.count(winStart.UnixNano(), t0.Add(d), cfg.slice, 1, 0)
		}
	}
}

// live is one workload's servers, preloaded, with the client connections
// that will drive them.
type live struct {
	servers *cluster
	probe   *conn
	load    *conn // nil when the workload has no background load
}

func (l *live) close() {
	for _, c := range []*conn{l.probe, l.load} {
		if c != nil {
			c.cl.Close()
		}
	}
	l.servers.stop()
}

// setUp is what setup_s times: start the servers, wait until they serve,
// open the attested sessions, preload every key and have it acknowledged.
func setUp(ctx context.Context, w *workload, cfg *settings, keys [][]byte) (_ *live, attempted, failed uint64, err error) {
	servers, err := startCluster(ctx, cfg.bin, cfg.tmpRoot, w)
	if err != nil {
		return nil, 0, 0, err
	}
	l := &live{servers: servers}
	defer func() {
		if err != nil {
			l.close()
		}
	}()
	cl, err := client.Dial(servers.primary().addr, servers.dial)
	if err != nil {
		return nil, 0, 0, err
	}
	l.probe = newConn(cl, w, cfg, keys, 0)
	if w.load {
		cl, err := client.Dial(servers.primary().addr, servers.dial)
		if err != nil {
			return nil, 0, 0, err
		}
		l.load = newConn(cl, w, cfg, keys, 1)
	}
	attempted, failed, err = preload(ctx, l.probe.cl, w, cfg, keys)
	return l, attempted, failed, err
}

// liveResult is one workload measured against real server processes.
type liveResult struct {
	endToEnd map[string]float64
	boundary map[string]float64 // counts at the program's boundary; a missing name is absent
	// attempted and failed cover every request of the run: preload,
	// warm-up, window and read-back.
	attempted, failed         uint64
	readSamples, writeSamples int
	setups                    []float64 // every set-up time, seconds
}

// runLive sets the workload up cfg.setups times (keeping the last), warms
// up, measures one window with tracing off, then reads every key back.
func runLive(ctx context.Context, w *workload, cfg *settings) (*liveResult, error) {
	keys := keyTable(cfg.keys)
	res := &liveResult{}
	var l *live
	for i := 0; i < cfg.setups; i++ {
		if l != nil {
			l.close()
		}
		start := time.Now()
		var attempted, failed uint64
		var err error
		l, attempted, failed, err = setUp(ctx, w, cfg, keys)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setups = append(res.setups, time.Since(start).Seconds())
		res.attempted += attempted
		res.failed += failed
	}
	defer l.close()

	var win window
	loadErr := make(chan error, 1)
	if l.load != nil {
		go func() { loadErr <- l.load.runLoad(&win, cfg.slice) }()
	} else {
		loadErr <- nil
	}
	pr, err := l.probe.runProbe(ctx, l.servers, cfg, &win)
	if lerr := <-loadErr; err == nil {
		err = lerr
	}
	if err != nil {
		return nil, err
	}
	rssMB, err := l.servers.peakRSSMB()
	if err != nil {
		return nil, err
	}
	var diskBytes int64
	if l.servers.vlogDir != "" {
		if diskBytes, err = dirBytes(l.servers.vlogDir); err != nil {
			return nil, err
		}
	}

	// Every key's last acknowledged version must still be there. With a
	// replica, "there" is the replica after the primary is killed without
	// warning: an acknowledged write may not depend on the primary.
	reader := l.probe.cl
	if r := l.servers.replica(); r != nil {
		l.servers.primary().kill()
		reader, err = client.Dial(r.addr, l.servers.dial)
		if err != nil {
			return nil, fmt.Errorf("dial replica: %w", err)
		}
		defer reader.Close()
		if _, err := reader.Promote(2); err != nil {
			return nil, fmt.Errorf("promote replica: %w", err)
		}
	}
	attempted, failed, err := readBack(ctx, reader, w, keys, func(id int) uint64 {
		if id%2 == 1 && l.load != nil {
			return l.load.version[id]
		}
		return l.probe.version[id]
	})
	if err != nil {
		return nil, err
	}
	res.attempted += attempted + l.probe.attempted
	res.failed += failed + l.probe.failed
	sliceOps := slices.Clone(l.probe.slices)
	reads, writes := l.probe.reads, l.probe.writes
	if l.load != nil {
		res.attempted += l.load.attempted
		res.failed += l.load.failed
		for i, n := range l.load.slices {
			sliceOps[i] += n
		}
		reads += l.load.reads
		writes += l.load.writes
	}

	if len(pr.readNs) == 0 || len(pr.writeNs) == 0 {
		return nil, fmt.Errorf("window too short: %d read and %d write samples", len(pr.readNs), len(pr.writeNs))
	}
	res.readSamples, res.writeSamples = len(pr.readNs), len(pr.writeNs)
	ops := float64(reads + writes)
	perSlice := make([]float64, len(sliceOps))
	for i, n := range sliceOps {
		perSlice[i] = float64(n) / cfg.slice.Seconds()
	}
	before, after := pr.before, pr.after
	res.endToEnd = map[string]float64{
		"throughput_ops_s":     median(perSlice),
		"read_p50_us":          quantile(pr.readNs, 0.50) / 1e3,
		"read_p99_us":          quantile(pr.readNs, 0.99) / 1e3,
		"write_p50_us":         quantile(pr.writeNs, 0.50) / 1e3,
		"write_p99_us":         quantile(pr.writeNs, 0.99) / 1e3,
		"server_cpu_us_per_op": (after.serverCPU - before.serverCPU) * 1e6 / ops,
		"client_cpu_us_per_op": (after.clientCPU - before.clientCPU) * 1e6 / ops,
		"server_rss_mb":        rssMB,
		"virtual_ops_s":        ops / (after.stats["virtual_seconds"] - before.stats["virtual_seconds"]),
		"setup_s":              median(res.setups),
	}

	res.boundary = boundaryCounts(w, cfg, before.stats, after.stats, float64(reads), float64(writes))
	if l.servers.vlogDir != "" {
		res.boundary["vlog.disk_bytes_per_user_byte"] = float64(diskBytes) / w.userBytes(cfg.keys)
	}
	return res, nil
}

// boundaryCounts turns the CmdStats values at the two edges of the window
// into the counts the server reports at its boundary. A counter this
// server mode does not report stays out of the map: absent, not zero.
func boundaryCounts(w *workload, cfg *settings, before, after map[string]float64, reads, writes float64) map[string]float64 {
	counts := map[string]float64{}
	delta := func(metric, stat string, per float64) {
		if b, ok := before[stat]; ok {
			counts[metric] = (after[stat] - b) / per
		}
	}
	level := func(metric, stat string, per float64) {
		if a, ok := after[stat]; ok {
			counts[metric] = a / per
		}
	}
	ops, user := reads+writes, w.userBytes(cfg.keys)
	delta("core.decrypt_per_op", "decryptions", ops)
	delta("mem.epc_fault_per_op", "epc_faults", ops)
	delta("sgx.ocall_per_op", "ocalls", ops)
	level("mem.untrusted_bytes_per_user_byte", "untrusted_bytes", user)
	level("mem.enclave_bytes_per_user_byte", "enclave_bytes", user)
	delta("vlog.fault_per_read", "vlog_fault", reads)
	delta("vlog.spill_per_write", "vlog_spill", writes)
	delta("vlog.gc_copy_per_write", "vlog_gc_copy", writes)
	level("vlog.segments_live", "vlog_segments_live", 1)
	if frames := after["repl_assigned"] - before["repl_assigned"]; frames > 0 {
		counts["repl.writes_per_frame"] = writes / frames
	}
	level("repl.lag_frames", "repl_lag", 1)
	return counts
}
