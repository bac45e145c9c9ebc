//go:build linux

package main

import (
	"bufio"
	"context"
	"crypto/rand"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"shieldstore"
	"shieldstore/internal/client"
	"shieldstore/internal/core"
	"shieldstore/internal/entry"
	"shieldstore/internal/mem"
	"shieldstore/internal/persist"
	"shieldstore/internal/proto"
	"shieldstore/internal/repl"
	"shieldstore/internal/server"
	"shieldstore/internal/sgx"
	"shieldstore/internal/sim"
	"shieldstore/internal/vlog"
)

// The traced pass. One goroutine replays the first cfg.ladderOps requests
// of the probe connection's stream once per rung of a ladder, each rung
// calling one layer's public functions directly, with a span around every
// call. A rung does everything the rung below it does, so a layer's self
// time is, per request, its span minus the span of the rung below; a
// span's parent names the rung above.
//
//	net ⊃ proto
//	net ⊃ db ⊃ core                       standalone workloads
//	net ⊃ repl ⊃ dispatch ⊃ core          repl_write: repl is the dispatch plane with the shipper teed in
//	core ⊃ entry ⊃ cmac;  core ⊃ vlog (spill_read);  core ⊃ persist

type layer uint8

const (
	noLayer layer = iota
	netLayer
	protoLayer
	dbLayer
	dispatchLayer
	replLayer
	coreLayer
	entryLayer
	cmacLayer
	vlogLayer
	persistLayer
)

var layerNames = [...]string{"", "net", "proto", "db", "dispatch", "repl", "core", "entry", "cmac", "vlog", "persist"}

// span is one call into a layer on behalf of request op.
type span struct {
	op            int32
	layer, parent layer
	start, end    int64 // ns since the ladder began
}

// lop is one replayed request with everything a rung needs made
// beforehand, so that no span includes generating it.
type lop struct {
	id    int
	write bool
	key   []byte
	val   []byte // the value a set stores; nil for a get
	want  uint64 // the version a get returns when the replay began on fresh state
}

type ladder struct {
	w    *workload
	cfg  *settings
	dir  string // scratch directory, removed at the end
	keys [][]byte
	ops  []lop
	// final[id] is a key's version after one replay. An engine that is
	// replayed on more than once serves a get anything from the version
	// program order demands on fresh state up to this one.
	final   []uint64
	scratch []byte

	began time.Time
	spans []span
	// ns[layer][i] is how long request i took on that layer's rung (on
	// its synchronous replay, where a rung has more than one).
	ns [len(layerNames)][]int64

	metrics           map[string]float64
	attempted, failed uint64
}

// runLadder produces the traced-pass metrics of one workload and writes
// its spans to cfg.outDir/trace_<workload>.jsonl.
func runLadder(ctx context.Context, w *workload, cfg *settings) (*ladder, error) {
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.tmpRoot, w.name+"-ladder-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	l := &ladder{
		w: w, cfg: cfg, dir: dir,
		keys:    keyTable(cfg.keys),
		final:   make([]uint64, cfg.keys),
		scratch: make([]byte, w.valueSize),
		began:   time.Now(),
		spans:   make([]span, 0, 10*cfg.ladderOps), // about ten spans per request, so appending never allocates
		metrics: map[string]float64{},
	}
	for i := range l.final {
		l.final[i] = 1
	}
	st := newStream(w, cfg.keys, cfg.seed, 0)
	l.ops = make([]lop, cfg.ladderOps)
	for i := range l.ops {
		o := st.next()
		lo := lop{id: o.id, write: o.write, key: l.keys[o.id], want: l.final[o.id]}
		if o.write {
			l.final[o.id]++
			lo.val = makeValue(make([]byte, w.valueSize), o.id, l.final[o.id], w.valueSize)
		}
		l.ops[i] = lo
	}

	engineRungs := l.standaloneRungs
	if w.repl {
		engineRungs = l.replicatedRungs
	}
	if err := engineRungs(ctx); err != nil {
		return nil, err
	}
	if err := l.protoRung(); err != nil {
		return nil, err
	}
	if err := l.coreRungs(ctx); err != nil {
		return nil, err
	}

	// Self time: per request, a rung's span minus the span of the rung
	// directly below it on this workload's path; the median over requests.
	self := func(metric string, outer, inner layer, keep func(i int) bool) {
		diff := make([]int64, 0, len(l.ops))
		for i := range l.ops {
			if keep == nil || keep(i) {
				diff = append(diff, l.ns[outer][i]-l.ns[inner][i])
			}
		}
		l.metrics[metric] = median(diff)
	}
	if w.repl {
		self("net.self_ns", netLayer, replLayer, nil)
		// Only sets enter the journal, so only they have a repl span to speak of.
		self("repl.self_ns", replLayer, dispatchLayer, func(i int) bool { return l.ops[i].write })
		self("dispatch.self_ns", dispatchLayer, coreLayer, nil)
	} else {
		self("net.self_ns", netLayer, dbLayer, nil)
		self("db.self_ns", dbLayer, coreLayer, nil)
	}
	return l, l.writeSpans()
}

func (l *ladder) record(op int, ly, parent layer, start time.Time, d time.Duration) {
	s := int64(start.Sub(l.began))
	l.spans = append(l.spans, span{int32(op), ly, parent, s, s + int64(d)})
}

// value is the payload request o carries on the wire or into a log: what
// a set stores, what a get returns.
func (l *ladder) value(o *lop) []byte {
	if o.write {
		return o.val
	}
	return makeValue(l.scratch, o.id, o.want, l.w.valueSize)
}

// check counts one reply, and as failed if it is an error or, for a get,
// not the value program order demands.
func (l *ladder) check(o *lop, val []byte, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		return
	}
	if !o.write {
		got, ok := valueVersion(val, o.id, l.w.valueSize, l.scratch)
		if !ok || got < o.want || got > l.final[o.id] {
			l.failed++
		}
	}
}

// replay runs do once per request, in order, with a span around each, and
// keeps every request's duration in l.ns[ly].
func (l *ladder) replay(ctx context.Context, ly, parent layer, do func(o *lop) ([]byte, error)) error {
	for lo := 0; lo < len(l.ops); lo += 1024 {
		if err := ctx.Err(); err != nil {
			return err
		}
		l.replayRange(ly, parent, lo, min(lo+1024, len(l.ops)), do)
	}
	return nil
}

// replayRange is replay for requests lo to hi-1.
func (l *ladder) replayRange(ly, parent layer, lo, hi int, do func(o *lop) ([]byte, error)) {
	if l.ns[ly] == nil {
		l.ns[ly] = make([]int64, len(l.ops))
	}
	for i := lo; i < hi; i++ {
		o := &l.ops[i]
		start := time.Now()
		val, err := do(o)
		d := time.Since(start)
		l.ns[ly][i] = int64(d)
		l.record(i, ly, parent, start, d)
		l.check(o, val, err)
	}
}

// getSet reports the median get and set of one rung.
func (l *ladder) getSet(ly layer, getMetric, setMetric string) {
	var gets, sets []int64
	for i := range l.ops {
		if l.ops[i].write {
			sets = append(sets, l.ns[ly][i])
		} else {
			gets = append(gets, l.ns[ly][i])
		}
	}
	if getMetric != "" {
		l.metrics[getMetric] = median(gets)
	}
	l.metrics[setMetric] = median(sets)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func newEnclave() *sgx.Enclave {
	return sgx.New(sgx.Config{Space: mem.NewSpace(mem.Config{}), Seed: deploymentSeed, Measurement: shieldstore.Measurement()})
}

// dbEngine serves a shieldstore.DB through server.Serve, as the unexported
// adapter behind DB.Serve does; going through server.Serve directly keeps
// Server.NetworkStats in reach.
type dbEngine struct{ db *shieldstore.DB }

func (e dbEngine) Get(_ *sim.Meter, key []byte) ([]byte, error) { return e.db.Get(key) }
func (e dbEngine) Set(_ *sim.Meter, key, value []byte) error    { return e.db.Set(key, value) }
func (e dbEngine) Delete(_ *sim.Meter, key []byte) error        { return e.db.Delete(key) }
func (e dbEngine) Append(_ *sim.Meter, key, suffix []byte) error {
	return e.db.Append(key, suffix)
}
func (e dbEngine) Incr(_ *sim.Meter, key []byte, delta int64) (int64, error) {
	return e.db.Incr(key, delta)
}

// standaloneRungs runs the net and db rungs on one shieldstore.DB opened
// the way the standalone server opens it.
func (l *ladder) standaloneRungs(ctx context.Context) error {
	cfg := shieldstore.Config{Partitions: partitions, Buckets: buckets, Seed: deploymentSeed}
	if l.w.spill {
		cfg.VLogDir = filepath.Join(l.dir, "db-vlog")
		cfg.MemBudget = l.w.memBudgetMB << 20
		cfg.CacheBytes = l.w.cacheMB << 20
	}
	db, err := shieldstore.Open(cfg)
	if err != nil {
		return err
	}
	defer db.Close()
	val := make([]byte, l.w.valueSize)
	for id, key := range l.keys {
		if err := db.Set(key, makeValue(val, id, 1, l.w.valueSize)); err != nil {
			return fmt.Errorf("db preload: %w", err)
		}
	}
	if err := l.netRung(ctx, dbEngine{db}, db.Enclave()); err != nil {
		return err
	}
	err = l.replay(ctx, dbLayer, netLayer, func(o *lop) ([]byte, error) {
		if o.write {
			return nil, db.Set(o.key, o.val)
		}
		return db.Get(o.key)
	})
	if err != nil {
		return err
	}
	l.getSet(dbLayer, "db.get_ns", "db.set_ns")
	return nil
}

// preloadPool stores version 1 of every key through a started pool.
func (l *ladder) preloadPool(p *core.Partitioned, route *sim.Meter) error {
	batch := make([]core.BatchOp, 0, burst)
	vals := make([]byte, burst*l.w.valueSize)
	for id := 0; id < len(l.keys); {
		batch = batch[:0]
		for ; id < len(l.keys) && len(batch) < burst; id++ {
			v := vals[len(batch)*l.w.valueSize:][:l.w.valueSize]
			batch = append(batch, core.BatchOp{Kind: core.BatchSet, Key: l.keys[id], Value: makeValue(v, id, 1, l.w.valueSize)})
		}
		for _, r := range p.SubmitBatch(route, batch).Wait() {
			if r.Err != nil {
				return fmt.Errorf("pool preload: %w", r.Err)
			}
		}
	}
	return nil
}

// submit is one synchronous request through the dispatch plane, the way
// the server's connection reader issues it.
func submit(p *core.Partitioned, route *sim.Meter, o *lop) ([]byte, error) {
	if o.write {
		_, _, err := p.Submit(route, core.BatchSet, o.key, o.val, 0).Wait()
		return nil, err
	}
	val, _, err := p.Submit(route, core.BatchGet, o.key, nil, 0).Wait()
	return val, err
}

// replicatedRungs runs the net and repl rungs on a primary pool whose
// journals tee into a repl.Shipper feeding an in-process replica over
// loopback (the assembly of shieldstore-server -role primary/replica),
// then the dispatch rung on a pool with no journal.
func (l *ladder) replicatedRungs(ctx context.Context) error {
	// Replica: a pool behind a server whose Replicate hook is the applier.
	re := newEnclave()
	rp := core.NewPartitioned(re, partitions, core.Defaults(buckets))
	applier, err := repl.NewApplier(rp, repl.ApplierOptions{Dir: filepath.Join(l.dir, "replica-state")})
	if err != nil {
		return err
	}
	defer applier.Close()
	rp.Start()
	defer rp.Stop()
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	rsrv := server.Serve(rln, server.Config{
		Engine: server.CoreEngine{P: rp}, Enclave: re, HotCalls: true, Secure: true,
		Replicate: applier.Apply, Promote: applier.Promote, Writable: applier.Writable,
		DrainTimeout: time.Second,
	})
	defer rsrv.Close()

	pe := newEnclave()
	p := core.NewPartitioned(pe, partitions, core.Defaults(buckets))
	shipper := repl.NewShipper(p, repl.ShipperOptions{Addr: rln.Addr().String(), Link: dialOptions()})
	for i := 0; i < p.Parts(); i++ {
		p.SetJournal(i, shipper.Tee(i, nil))
	}
	p.Start()
	defer p.Stop()
	shipper.Start()
	defer shipper.Close() // runs before p.Stop: the bootstrap worker uses RunCtl
	route := sim.NewMeter(pe.Model())
	if err := l.preloadPool(p, route); err != nil {
		return err
	}

	if err := l.netRung(ctx, server.CoreEngine{P: p}, pe); err != nil {
		return err
	}
	err = l.replay(ctx, replLayer, netLayer, func(o *lop) ([]byte, error) { return submit(p, route, o) })
	if err != nil {
		return err
	}
	l.getSet(replLayer, "", "repl.acked_set_ns")

	// The same dispatch plane with nothing journaled.
	de := newEnclave()
	dp := core.NewPartitioned(de, partitions, core.Defaults(buckets))
	dp.Start()
	defer dp.Stop()
	droute := sim.NewMeter(de.Model())
	if err := l.preloadPool(dp, droute); err != nil {
		return err
	}
	err = l.replay(ctx, dispatchLayer, replLayer, func(o *lop) ([]byte, error) { return submit(dp, droute, o) })
	if err != nil {
		return err
	}
	l.getSet(dispatchLayer, "dispatch.get_ns", "dispatch.set_ns")

	// Bursts of 32 through SubmitBatch. Each burst is waited for before
	// the next is submitted, so the drain count is a function of the
	// request stream alone.
	before := dp.AggregateStats().Events[sim.CtrDispatch]
	batch := make([]core.BatchOp, 0, burst)
	start := time.Now()
	for i := 0; i < len(l.ops); i += burst {
		batch = batch[:0]
		for j := i; j < min(i+burst, len(l.ops)); j++ {
			o := &l.ops[j]
			if o.write {
				batch = append(batch, core.BatchOp{Kind: core.BatchSet, Key: o.key, Value: o.val})
			} else {
				batch = append(batch, core.BatchOp{Kind: core.BatchGet, Key: o.key})
			}
		}
		for j, r := range dp.SubmitBatch(droute, batch).Wait() {
			l.check(&l.ops[i+j], r.Val, r.Err)
		}
	}
	n := float64(len(l.ops))
	l.metrics["dispatch.burst32_ns_per_op"] = float64(time.Since(start)) / n
	l.metrics["dispatch.ops_per_drain"] = n / float64(dp.AggregateStats().Events[sim.CtrDispatch]-before)
	return nil
}

// netRung serves eng through server.Serve on loopback and replays the
// stream through internal/client: synchronously, every chunk of requests
// once with spans and once without (the difference is the tracing
// overhead), then in pipelined bursts of 32.
func (l *ladder) netRung(ctx context.Context, eng server.Engine, e *sgx.Enclave) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := server.Serve(ln, server.Config{Engine: eng, Enclave: e, HotCalls: true, Secure: true, DrainTimeout: time.Second})
	defer srv.Close()
	cl, err := client.Dial(ln.Addr().String(), dialOptions())
	if err != nil {
		return err
	}
	do := func(o *lop) ([]byte, error) {
		if o.write {
			return nil, cl.Set(o.key, o.val)
		}
		return cl.Get(o.key)
	}

	// A round trip wanders by far more than a span costs, so the two
	// kinds of replay alternate chunk by chunk, swapping which goes first,
	// and the overhead is the median difference over the chunks.
	const chunk = 500
	var overhead []float64
	allocs := mallocs() // spans and durations land in memory made beforehand
	for c, lo := 0, 0; lo < len(l.ops); c, lo = c+1, lo+chunk {
		if err := ctx.Err(); err != nil {
			cl.Close()
			return err
		}
		hi := min(lo+chunk, len(l.ops))
		var traced, untraced time.Duration
		for pass := 0; pass < 2; pass++ {
			if (pass == 0) == (c%2 == 0) {
				start := time.Now()
				l.replayRange(netLayer, noLayer, lo, hi, do)
				traced = time.Since(start)
				continue
			}
			start := time.Now()
			for i := lo; i < hi; i++ {
				val, err := do(&l.ops[i])
				l.check(&l.ops[i], val, err)
			}
			untraced = time.Since(start)
		}
		overhead = append(overhead, float64(traced-untraced)/float64(hi-lo))
	}
	n := float64(len(l.ops))
	l.metrics["net.allocs_per_op"] = float64(mallocs()-allocs) / (2 * n)
	l.getSet(netLayer, "net.sync_get_ns", "net.sync_set_ns")
	l.metrics["trace.overhead_ns_per_op"] = median(overhead)

	// Once the connection is closed and retired, the server's network
	// meters hold exactly the syscalls of the 2n synchronous requests (and
	// the two of the handshake), whatever the host's timing was.
	cl.Close()
	for deadline := time.Now().Add(5 * time.Second); srv.LiveConns() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("net rung: server did not retire the connection")
		}
	}
	l.metrics["net.sim_syscall_per_op"] = float64(srv.NetworkStats().Events[sim.CtrSyscall]) / (2 * n)

	cl, err = client.Dial(ln.Addr().String(), dialOptions())
	if err != nil {
		return err
	}
	defer cl.Close()
	pipe := cl.Pipeline()
	start := time.Now()
	for i := 0; i < len(l.ops); i += burst {
		for j := i; j < min(i+burst, len(l.ops)); j++ {
			if o := &l.ops[j]; o.write {
				pipe.Set(o.key, o.val)
			} else {
				pipe.Get(o.key)
			}
		}
		res, err := pipe.Flush()
		if err != nil {
			return fmt.Errorf("net rung burst: %w", err)
		}
		for j, r := range res {
			l.check(&l.ops[i+j], r.Value, r.Err)
		}
	}
	l.metrics["net.burst32_ns_per_op"] = float64(time.Since(start)) / n
	return nil
}

// protoRung does to every request and its response what the wire path
// does to them, with no wire: append, seal, open, decode, on a pair of
// session channels from a real handshake.
func (l *ladder) protoRung() error {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	type hs struct {
		ch  *proto.Channel
		err error
	}
	done := make(chan hs, 1)
	go func() {
		ch, err := proto.ServerHandshake(c2, newEnclave(), rand.Reader)
		done <- hs{ch, err}
	}()
	cli, err := proto.ClientHandshake(c1, shieldstore.AttestationService(deploymentSeed), shieldstore.Measurement())
	if err != nil {
		return fmt.Errorf("proto rung handshake: %w", err)
	}
	s := <-done
	if s.err != nil {
		return fmt.Errorf("proto rung handshake: %w", s.err)
	}
	srv := s.ch

	var enc, sealed []byte
	var decoded proto.Request
	reqNs := make([]int64, len(l.ops))
	respNs := make([]int64, len(l.ops))
	allocs := mallocs()
	for i := range l.ops {
		o := &l.ops[i]
		req := proto.Request{Cmd: proto.CmdGet, Key: o.key}
		resp := proto.Response{Status: proto.StatusOK}
		if o.write {
			req.Cmd, req.Value = proto.CmdSet, o.val
		} else {
			resp.Value = l.value(o)
		}

		start := time.Now()
		enc = proto.AppendRequest(enc[:0], &req)
		sealed = cli.SealTo(sealed[:0], enc)
		plain, err := srv.OpenInPlace(sealed)
		if err == nil {
			err = proto.DecodeRequestInto(&decoded, plain)
		}
		d := time.Since(start)
		reqNs[i] = int64(d)
		l.record(i, protoLayer, netLayer, start, d)
		if err != nil {
			return fmt.Errorf("proto rung request: %w", err)
		}

		start = time.Now()
		enc = proto.AppendResponse(enc[:0], &resp)
		sealed = srv.SealTo(sealed[:0], enc)
		var got *proto.Response
		plain, err = cli.OpenInPlace(sealed)
		if err == nil {
			got, err = proto.DecodeResponse(plain)
		}
		d = time.Since(start)
		respNs[i] = int64(d)
		l.record(i, protoLayer, netLayer, start, d)
		if err != nil {
			return fmt.Errorf("proto rung response: %w", err)
		}
		l.check(o, got.Value, nil)
	}
	l.metrics["proto.allocs_per_op"] = float64(mallocs()-allocs) / float64(len(l.ops))
	l.metrics["proto.request_ns"] = median(reqNs)
	l.metrics["proto.response_ns"] = median(respNs)
	return nil
}

// coreRungs runs the core rung on one core.Store holding every key, with
// the workload's store options, then the rungs below it: entry and cmac
// on the store's cipher, vlog on a log of its own, persist on the store.
func (l *ladder) coreRungs(ctx context.Context) error {
	e := newEnclave()
	m := sim.NewMeter(e.Model())
	cipher := entry.NewCipher(e, m)
	opts := core.Defaults(buckets)
	vlogDir := ""
	if l.w.spill {
		opts.CacheBytes = l.w.cacheMB << 20
		opts.MemBudget = l.w.memBudgetMB << 20
		vlogDir = filepath.Join(l.dir, "core-vlog")
	}
	s := core.New(e, cipher, opts)
	if vlogDir != "" {
		lg, err := vlog.New(e, vlogDir, vlog.Options{})
		if err != nil {
			return err
		}
		defer lg.Close()
		s.AttachVLog(lg)
	}
	val := make([]byte, l.w.valueSize)
	for id, key := range l.keys {
		if err := s.Set(m, key, makeValue(val, id, 1, l.w.valueSize)); err != nil {
			return fmt.Errorf("core preload: %w", err)
		}
	}

	// The replay runs on a fresh store with one goroutine, so the meter's
	// cycles and counters are a function of the seed alone.
	parent := dbLayer
	if l.w.repl {
		parent = dispatchLayer
	}
	var gets, sets, getCycles, setCycles, visited, cmacs uint64
	hits, misses := m.Events(sim.CtrCacheHit), m.Events(sim.CtrCacheMiss)
	err := l.replay(ctx, coreLayer, parent, func(o *lop) ([]byte, error) {
		cycles := m.Cycles()
		if o.write {
			err := s.Set(m, o.key, o.val)
			sets++
			setCycles += m.Cycles() - cycles
			return nil, err
		}
		v, c := m.Events(sim.CtrEntryVisited), m.Events(sim.CtrCMAC)
		val, err := s.Get(m, o.key)
		gets++
		getCycles += m.Cycles() - cycles
		visited += m.Events(sim.CtrEntryVisited) - v
		cmacs += m.Events(sim.CtrCMAC) - c
		return val, err
	})
	if err != nil {
		return err
	}
	l.getSet(coreLayer, "core.get_ns", "core.set_ns")
	l.metrics["core.get_vcycles"] = float64(getCycles) / float64(gets)
	l.metrics["core.set_vcycles"] = float64(setCycles) / float64(sets)
	l.metrics["core.entry_visited_per_get"] = float64(visited) / float64(gets)
	l.metrics["core.cmac_per_get"] = float64(cmacs) / float64(gets)
	hits, misses = m.Events(sim.CtrCacheHit)-hits, m.Events(sim.CtrCacheMiss)-misses
	if hits+misses > 0 { // absent without a cache
		l.metrics["core.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}

	// Allocations, on runs of one kind of request so they can be told apart.
	for _, kind := range []struct {
		write  bool
		metric string
	}{{false, "core.get_allocs"}, {true, "core.set_allocs"}} {
		count, allocs := 0, mallocs()
		for i := range l.ops {
			o := &l.ops[i]
			if o.write != kind.write {
				continue
			}
			var val []byte
			var err error
			if o.write {
				err = s.Set(m, o.key, o.val)
			} else {
				val, err = s.Get(m, o.key)
			}
			l.check(o, val, err)
			count++
		}
		l.metrics[kind.metric] = float64(mallocs()-allocs) / float64(count)
	}

	l.entryRungs(cipher, m)
	if l.w.spill {
		if err := l.vlogRung(e, m); err != nil {
			return err
		}
	}
	return l.persistRung(e, s, m, vlogDir)
}

// entryRungs seals and opens every request's key and value the way the
// store does an entry (AES-CTR plus the entry MAC), and tags a message of
// the entry MAC's input size with the bare CMAC.
func (l *ladder) entryRungs(cipher *entry.Cipher, m *sim.Meter) {
	size := keySize + l.w.valueSize
	ct, pt := make([]byte, size), make([]byte, size)
	// The entry MAC covers the ciphertext, two sizes, hint, flags and IV.
	msg := make([]byte, size+10+entry.IVSize)
	mac := cipher.MACEngine()
	seal := make([]int64, len(l.ops))
	open := make([]int64, len(l.ops))
	tag := make([]int64, len(l.ops))
	for i := range l.ops {
		o := &l.ops[i]
		val := l.value(o)
		hdr := entry.Header{KeySize: keySize, ValSize: uint32(len(val))}
		cipher.NewIV(m, &hdr.IV)

		start := time.Now()
		cipher.EncryptKV(m, &hdr.IV, o.key, val, ct)
		hdr.MAC = cipher.EntryMAC(m, &hdr, ct)
		d := time.Since(start)
		seal[i] = int64(d)
		l.record(i, entryLayer, coreLayer, start, d)

		start = time.Now()
		ok := cipher.VerifyEntryMAC(m, &hdr, ct, hdr.MAC[:])
		cipher.DecryptKV(m, &hdr.IV, ct, pt)
		d = time.Since(start)
		open[i] = int64(d)
		l.record(i, entryLayer, coreLayer, start, d)
		l.attempted++
		if !ok || string(pt[keySize:]) != string(val) {
			l.failed++
		}

		copy(msg, ct)
		start = time.Now()
		_ = mac.Tag(msg)
		d = time.Since(start)
		tag[i] = int64(d)
		l.record(i, cmacLayer, entryLayer, start, d)
	}
	l.metrics["entry.seal_ns"] = median(seal)
	l.metrics["entry.open_ns"] = median(open)
	l.metrics["cmac.tag_ns"] = median(tag)
}

// vlogRung appends every request's key and value to a value log and reads
// each record back.
func (l *ladder) vlogRung(e *sgx.Enclave, m *sim.Meter) error {
	lg, err := vlog.New(e, filepath.Join(l.dir, "vlog-rung"), vlog.Options{})
	if err != nil {
		return err
	}
	defer lg.Close()
	ptrs := make([]vlog.Ptr, len(l.ops))
	ns := make([]int64, len(l.ops))
	for i := range l.ops {
		o := &l.ops[i]
		val := l.value(o)
		start := time.Now()
		ptrs[i], err = lg.Append(m, o.key, val)
		d := time.Since(start)
		ns[i] = int64(d)
		l.record(i, vlogLayer, coreLayer, start, d)
		if err != nil {
			return fmt.Errorf("vlog rung append: %w", err)
		}
	}
	l.metrics["vlog.append_ns"] = median(ns)
	for i := range l.ops {
		o := &l.ops[i]
		start := time.Now()
		_, val, err := lg.Read(m, ptrs[i])
		d := time.Since(start)
		ns[i] = int64(d)
		l.record(i, vlogLayer, coreLayer, start, d)
		l.attempted++
		if err != nil || string(val) != string(l.value(o)) {
			l.failed++
		}
	}
	l.metrics["vlog.read_ns"] = median(ns)
	return nil
}

// persistRung journals every set through a persist.WAL (what a partition
// journal costs per write, and what it writes per user byte), then
// snapshots the loaded store and restores it.
func (l *ladder) persistRung(e *sgx.Enclave, s *core.Store, m *sim.Meter, vlogDir string) error {
	walDir := filepath.Join(l.dir, "wal")
	snapDir := filepath.Join(l.dir, "snapshot")
	for _, dir := range []string{walDir, snapDir} {
		if err := os.Mkdir(dir, 0o700); err != nil {
			return err
		}
	}
	wal, err := persist.NewWAL(s, walDir, 0)
	if err != nil {
		return err
	}
	var ns []int64
	user := 0
	for i := range l.ops {
		o := &l.ops[i]
		if !o.write {
			continue
		}
		start := time.Now()
		err := wal.LogOp(m, core.BatchSet, o.key, o.val, 0)
		d := time.Since(start)
		ns = append(ns, int64(d))
		l.record(i, persistLayer, coreLayer, start, d)
		if err != nil {
			wal.Close()
			return fmt.Errorf("persist rung journal: %w", err)
		}
		user += len(o.key) + len(o.val)
	}
	if err := wal.Close(); err != nil {
		return err
	}
	written, err := dirBytes(walDir)
	if err != nil {
		return err
	}
	l.metrics["persist.wal_set_ns"] = median(ns)
	l.metrics["persist.wal_bytes_per_user_byte"] = float64(written) / float64(user)

	ps := persist.New(s, snapDir, persist.Optimized)
	start := time.Now()
	if err := ps.Snapshot(m); err != nil {
		return fmt.Errorf("persist rung snapshot: %w", err)
	}
	ps.Drain(m)
	d := time.Since(start)
	l.record(-1, persistLayer, coreLayer, start, d)
	l.metrics["persist.snapshot_ms"] = float64(d) / 1e6

	start = time.Now()
	restored, err := persist.RestoreWith(e, snapDir, persist.CounterIDFor(snapDir), m,
		persist.RestoreOpts{VLogDir: vlogDir, CacheBytes: s.CacheBudget()})
	d = time.Since(start)
	if err != nil {
		return fmt.Errorf("persist rung restore: %w", err)
	}
	l.record(-1, persistLayer, coreLayer, start, d)
	l.metrics["persist.restore_ms"] = float64(d) / 1e6
	if lg := restored.VLog(); lg != nil {
		lg.Close()
	}
	l.attempted++
	if restored.Keys() != len(l.keys) {
		l.failed++
	}
	return nil
}

// writeSpans writes the spans kept in memory, one JSON object per line.
func (l *ladder) writeSpans() error {
	if err := os.MkdirAll(l.cfg.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(l.cfg.outDir, "trace_"+l.w.name+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, s := range l.spans {
		line = append(line[:0], `{"op":`...)
		line = strconv.AppendInt(line, int64(s.op), 10)
		line = append(line, `,"layer":"`...)
		line = append(line, layerNames[s.layer]...)
		line = append(line, `","parent":"`...)
		line = append(line, layerNames[s.parent]...)
		line = append(line, `","start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, "}\n"...)
		w.Write(line) // a failed write is sticky and Flush reports it
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
