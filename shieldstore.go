// Package shieldstore is a Go reproduction of "ShieldStore: Shielded
// In-memory Key-value Storage with SGX" (Kim et al., EuroSys 2019): a
// key-value store whose main hash table lives in untrusted memory with
// every entry individually encrypted and integrity-protected by enclave
// code, sidestepping the SGX enclave page cache (EPC) limit.
//
// Because Go has no production enclave runtime, the store runs on a
// deterministic software SGX simulator (see DESIGN.md): all cryptography
// is real, memory is split into simulated enclave/untrusted regions, and
// every operation's cost is charged to a calibrated virtual-cycle model —
// which is also how the repository regenerates the paper's figures.
//
// Basic use:
//
//	db, err := shieldstore.Open(shieldstore.Config{})
//	if err != nil { ... }
//	defer db.Close()
//	db.Set([]byte("user42"), []byte("hello"))
//	v, err := db.Get([]byte("user42"))
//
// The store supports Get/Set/Delete plus the server-side computations the
// paper motivates (Append, Incr), snapshot persistence with rollback
// protection, and a remote-attested encrypted network front-end (Serve).
package shieldstore

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"shieldstore/internal/core"
	"shieldstore/internal/entry"
	"shieldstore/internal/histo"
	"shieldstore/internal/mem"
	"shieldstore/internal/persist"
	"shieldstore/internal/server"
	"shieldstore/internal/sgx"
	"shieldstore/internal/sim"
	"shieldstore/internal/vlog"
)

// Re-exported sentinel errors.
var (
	// ErrNotFound reports a missing key.
	ErrNotFound = core.ErrNotFound
	// ErrIntegrity reports tampered or replayed untrusted state.
	ErrIntegrity = core.ErrIntegrity
	// ErrNotNumeric reports Incr on a non-numeric value.
	ErrNotNumeric = core.ErrNotNumeric
	// ErrRollback reports restoring a stale snapshot.
	ErrRollback = persist.ErrRollback
)

// SnapshotMode selects the persistence flavor of §4.4.
type SnapshotMode int

// Snapshot modes.
const (
	// SnapshotOptimized is Algorithm 1: only metadata sealing blocks.
	SnapshotOptimized SnapshotMode = iota
	// SnapshotNaive blocks requests for the whole snapshot write.
	SnapshotNaive
)

// Config configures a DB. The zero value is a usable in-memory store with
// the paper's ShieldOpt defaults at laptop scale.
type Config struct {
	// Partitions is the number of hash-partitioned worker shards (§5.3).
	// Default 4, matching the paper's 4-core evaluation.
	Partitions int
	// Buckets is the total hash bucket count (default 1<<16).
	Buckets int
	// MACHashes is the number of in-enclave MAC hash slots (§4.3);
	// default = Buckets.
	MACHashes int
	// CacheBytes enables the in-enclave plaintext cache (§6.3).
	CacheBytes int64
	// EPCBytes overrides the simulated effective EPC (default ~90 MB).
	EPCBytes int64
	// Seed makes the enclave's key material and DRBG reproducible;
	// 0 uses a fixed default.
	Seed uint64
	// DisableKeyHint, DisableMACBucket and DisableExtraHeap turn off the
	// §5 optimizations (ShieldBase ablations).
	DisableKeyHint   bool
	DisableMACBucket bool
	DisableExtraHeap bool
	// SnapshotDir enables persistence: Snapshot() writes there, and Open
	// restores from it when snapshots are present.
	SnapshotDir string
	// SnapshotMode selects naive vs optimized snapshots.
	SnapshotMode SnapshotMode
	// RangeIndex enables ordered Range queries via an enclave-resident
	// skiplist over plaintext keys — the paper's §7 future-work
	// extension. Trade-off: EPC footprint proportional to the key set.
	RangeIndex bool
	// VLogDir enables tiered hybrid storage (DESIGN.md §14): values at or
	// above SpillThreshold spill to an encrypted append-only value log
	// under this directory once MemBudget is pressed, with the freshness
	// state (segment versions + extents) held in enclave memory.
	VLogDir string
	// SpillThreshold is the minimum value size eligible for spilling
	// (default core.DefaultSpillThreshold; only meaningful with VLogDir).
	SpillThreshold int
	// MemBudget caps the total in-memory value bytes before Sets start
	// spilling; 0 spills every threshold-sized value (with VLogDir set).
	MemBudget int64
}

// DB is a ShieldStore database handle. All methods are safe for
// concurrent use; internally each key-space partition is owned by exactly
// one logical thread, as in the paper.
type DB struct {
	cfg     Config
	enclave *sgx.Enclave
	cipher  *entry.Cipher

	parts  []*persist.Store // persistence wrappers (always present)
	meters []*sim.Meter
	lats   []*histo.Histogram // per-partition virtual latency (cycles)
	locks  []sync.Mutex

	closed bool
	mu     sync.Mutex
}

// Open creates (or restores) a database.
//
//ss:host(database bootstrap: directory setup happens before the measured window)
func Open(cfg Config) (*DB, error) {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 4
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = 1 << 16
	}
	if cfg.MACHashes <= 0 || cfg.MACHashes > cfg.Buckets {
		cfg.MACHashes = cfg.Buckets
	}

	space := mem.NewSpace(mem.Config{EPCBytes: cfg.EPCBytes})
	scfg := sgx.Config{Space: space, Seed: cfg.Seed, Measurement: Measurement()}
	if cfg.SnapshotDir != "" {
		if err := os.MkdirAll(cfg.SnapshotDir, 0o700); err != nil {
			return nil, err
		}
		scfg.CounterPath = filepath.Join(cfg.SnapshotDir, "nvram.bin")
	}
	enclave := sgx.New(scfg)

	db := &DB{cfg: cfg, enclave: enclave}
	db.meters = make([]*sim.Meter, cfg.Partitions)
	db.lats = make([]*histo.Histogram, cfg.Partitions)
	db.locks = make([]sync.Mutex, cfg.Partitions)
	for i := range db.meters {
		db.meters[i] = sim.NewMeter(enclave.Model())
		db.lats[i] = &histo.Histogram{}
	}

	// Restore or create.
	if cfg.SnapshotDir != "" && hasSnapshot(partDir(cfg.SnapshotDir, 0)) {
		return db, db.restore()
	}

	setup := sim.NewMeter(enclave.Model())
	db.cipher = entry.NewCipher(enclave, setup)
	opts := db.storeOptions()
	for i := 0; i < cfg.Partitions; i++ {
		s := core.New(enclave, db.cipher, opts)
		if cfg.VLogDir != "" {
			l, err := vlog.New(enclave, partDir(cfg.VLogDir, i), vlog.Options{})
			if err != nil {
				return nil, fmt.Errorf("shieldstore: open value log partition %d: %w", i, err)
			}
			s.AttachVLog(l)
		}
		db.parts = append(db.parts, db.wrap(s, i))
	}
	return db, nil
}

// storeOptions converts Config into per-partition core options.
func (db *DB) storeOptions() core.Options {
	cfg := db.cfg
	opts := core.Defaults(max(1, cfg.Buckets/cfg.Partitions))
	opts.MACHashes = max(1, cfg.MACHashes/cfg.Partitions)
	opts.KeyHint = !cfg.DisableKeyHint
	opts.MACBucket = !cfg.DisableMACBucket
	opts.ExtraHeap = !cfg.DisableExtraHeap
	opts.CacheBytes = cfg.CacheBytes / int64(cfg.Partitions)
	opts.RangeIndex = cfg.RangeIndex
	if cfg.SpillThreshold > 0 {
		opts.SpillThreshold = cfg.SpillThreshold
	}
	opts.MemBudget = cfg.MemBudget / int64(cfg.Partitions)
	return opts
}

// wrap attaches the persistence layer to one partition.
//
//ss:host(directory setup at open time, outside the measured window)
func (db *DB) wrap(s *core.Store, part int) *persist.Store {
	dir := ""
	mode := persist.Optimized
	if db.cfg.SnapshotMode == SnapshotNaive {
		mode = persist.Naive
	}
	if db.cfg.SnapshotDir != "" {
		dir = partDir(db.cfg.SnapshotDir, part)
		_ = os.MkdirAll(dir, 0o700)
	}
	return persist.New(s, dir, mode)
}

func partDir(base string, part int) string {
	return filepath.Join(base, fmt.Sprintf("part-%03d", part))
}

//ss:host(existence probe at open time, outside the measured window)
func hasSnapshot(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "snapshot.meta"))
	return err == nil
}

// restore loads every partition from its snapshot.
func (db *DB) restore() error {
	m := sim.NewMeter(db.enclave.Model())
	for i := 0; i < db.cfg.Partitions; i++ {
		dir := partDir(db.cfg.SnapshotDir, i)
		ro := persist.RestoreOpts{CacheBytes: db.cfg.CacheBytes / int64(db.cfg.Partitions)}
		if db.cfg.VLogDir != "" {
			ro.VLogDir = partDir(db.cfg.VLogDir, i)
		}
		s, err := persist.RestoreWith(db.enclave, dir, persist.CounterIDFor(dir), m, ro)
		if err != nil {
			return fmt.Errorf("shieldstore: restore partition %d: %w", i, err)
		}
		if db.cipher == nil {
			db.cipher = s.Cipher()
		}
		db.parts = append(db.parts, db.wrap(s, i))
	}
	return nil
}

// Measurement returns the enclave code identity this build reports in
// attestation quotes.
func Measurement() [32]byte {
	var m [32]byte
	copy(m[:], "shieldstore-go-enclave-v1")
	return m
}

// AttestationService returns a quote verifier for servers created with
// the given seed. It plays the role of Intel's attestation service, which
// holds the platform keys: in the simulation those keys derive from the
// deployment seed, so a client process can verify quotes of a server it
// shares the seed with without sharing the enclave itself.
func AttestationService(seed uint64) *sgx.Enclave {
	space := mem.NewSpace(mem.Config{EPCBytes: 64 << 10})
	return sgx.New(sgx.Config{Space: space, Seed: seed, Measurement: Measurement()})
}

// route picks the partition for a key and returns it locked.
func (db *DB) route(key []byte) (int, *persist.Store, *sim.Meter) {
	h := db.cipher.BucketHash(nil, key)
	i := int(h % uint64(len(db.parts)))
	return i, db.parts[i], db.meters[i]
}

// Get returns the value stored under key (a copy).
func (db *DB) Get(key []byte) ([]byte, error) {
	i, p, m := db.route(key)
	db.locks[i].Lock()
	defer db.locks[i].Unlock()
	before := m.Cycles()
	v, err := p.Get(m, key)
	db.lats[i].Record(m.Cycles() - before)
	return v, err
}

// Set stores value under key.
func (db *DB) Set(key, value []byte) error {
	i, p, m := db.route(key)
	db.locks[i].Lock()
	defer db.locks[i].Unlock()
	before := m.Cycles()
	err := p.Set(m, key, value)
	db.lats[i].Record(m.Cycles() - before)
	return err
}

// Delete removes key.
func (db *DB) Delete(key []byte) error {
	i, p, m := db.route(key)
	db.locks[i].Lock()
	defer db.locks[i].Unlock()
	return p.Delete(m, key)
}

// Append appends suffix to key's value inside the enclave — the
// server-side computation that client-side encryption cannot offer (§3.2).
func (db *DB) Append(key, suffix []byte) error {
	i, p, m := db.route(key)
	db.locks[i].Lock()
	defer db.locks[i].Unlock()
	return p.Append(m, key, suffix)
}

// Incr atomically adds delta to a decimal-encoded value and returns the
// new number (created at delta when missing).
func (db *DB) Incr(key []byte, delta int64) (int64, error) {
	i, p, m := db.route(key)
	db.locks[i].Lock()
	defer db.locks[i].Unlock()
	return db.incrLocked(p, m, key, delta)
}

// incrLocked runs Incr with the partition lock held. persist.Store does
// not wrap Incr directly; route through the main store when no snapshot is
// draining, else emulate via Get+Set.
func (db *DB) incrLocked(p *persist.Store, m *sim.Meter, key []byte, delta int64) (int64, error) {
	if !p.InSnapshot() {
		return p.Main().Incr(m, key, delta)
	}
	old, err := p.Get(m, key)
	if err != nil && !errors.Is(err, core.ErrNotFound) {
		return 0, err
	}
	cur := int64(0)
	if err == nil {
		n, perr := parseInt(old)
		if perr != nil {
			return 0, core.ErrNotNumeric
		}
		cur = n
	}
	cur += delta
	return cur, p.Set(m, key, []byte(fmt.Sprintf("%d", cur)))
}

// BatchOp is one operation of a DB.Batch call; BatchResult its per-op
// outcome. Both are re-exported from the core engine.
type (
	BatchOp     = core.BatchOp
	BatchResult = core.BatchResult
)

// Batch operation kinds, re-exported for BatchOp construction.
const (
	BatchGet    = core.BatchGet
	BatchSet    = core.BatchSet
	BatchDelete = core.BatchDelete
	BatchAppend = core.BatchAppend
	BatchIncr   = core.BatchIncr
)

// Batch executes a heterogeneous batch of operations, grouped by
// partition: each involved partition is locked once and applies its
// sub-batch with one bucket-set verification and one MAC-hash recompute
// per touched set (see DESIGN.md, "Batch amortization"). Results follow
// submission order; errors are isolated per op — a missing key taints only
// its own result, never the rest of the batch.
func (db *DB) Batch(ops []BatchOp) []BatchResult {
	results := make([]BatchResult, len(ops))
	if len(ops) == 0 {
		return results
	}
	idxs := make([][]int, len(db.parts))
	for i := range ops {
		h := db.cipher.BucketHash(nil, ops[i].Key)
		part := int(h % uint64(len(db.parts)))
		idxs[part] = append(idxs[part], i)
	}
	for part, list := range idxs {
		if len(list) == 0 {
			continue
		}
		sub := make([]BatchOp, len(list))
		for j, i := range list {
			sub[j] = ops[i]
		}
		db.locks[part].Lock()
		p, m := db.parts[part], db.meters[part]
		before := m.Cycles()
		var rs []BatchResult
		if !p.InSnapshot() {
			rs = p.Main().ApplyBatch(m, sub)
		} else {
			// A snapshot is draining: the persist wrapper must see every
			// mutation, so fall back to per-op application.
			rs = db.snapshotBatch(p, m, sub)
		}
		db.lats[part].Record(m.Cycles() - before)
		db.locks[part].Unlock()
		for j, i := range list {
			results[i] = rs[j]
		}
	}
	return results
}

// snapshotBatch applies a partition's sub-batch op-by-op through the
// persistence wrapper (correct during snapshot drain, none of the
// amortization). The partition lock is held.
func (db *DB) snapshotBatch(p *persist.Store, m *sim.Meter, ops []BatchOp) []BatchResult {
	rs := make([]BatchResult, len(ops))
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case core.BatchGet:
			rs[i].Val, rs[i].Err = p.Get(m, op.Key)
		case core.BatchSet:
			rs[i].Err = p.Set(m, op.Key, op.Value)
		case core.BatchDelete:
			rs[i].Err = p.Delete(m, op.Key)
		case core.BatchAppend:
			rs[i].Err = p.Append(m, op.Key, op.Value)
		case core.BatchIncr:
			rs[i].Num, rs[i].Err = db.incrLocked(p, m, op.Key, op.Delta)
		default:
			rs[i].Err = core.ErrBadBatchOp
		}
	}
	return rs
}

// MSet stores keys[i] = values[i] for all i in one batched call and
// returns the first per-op failure, if any.
func (db *DB) MSet(keys, values [][]byte) error {
	if len(keys) != len(values) {
		return errors.New("shieldstore: MSet keys/values length mismatch")
	}
	ops := make([]BatchOp, len(keys))
	for i := range keys {
		ops[i] = BatchOp{Kind: BatchSet, Key: keys[i], Value: values[i]}
	}
	for _, r := range db.Batch(ops) {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// KV is one key-value pair returned by Range.
type KV = core.KV

// Range returns up to limit pairs with start <= key < end in key order
// (limit <= 0 means unlimited), merged across partitions. Requires
// Config.RangeIndex. Results reflect fully merged state: snapshots in
// flight are drained first.
func (db *DB) Range(start, end []byte, limit int) ([]KV, error) {
	var all []KV
	for i := range db.parts {
		db.locks[i].Lock()
		db.parts[i].Drain(db.meters[i])
		kvs, err := db.parts[i].Main().Range(db.meters[i], start, end, limit)
		db.locks[i].Unlock()
		if err != nil {
			return nil, err
		}
		all = append(all, kvs...)
	}
	sort.Slice(all, func(i, j int) bool { return bytes.Compare(all[i].Key, all[j].Key) < 0 })
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	return all, nil
}

// Keys returns the number of live keys.
func (db *DB) Keys() int {
	total := 0
	for i := range db.parts {
		db.locks[i].Lock()
		total += db.parts[i].Main().Keys()
		db.locks[i].Unlock()
	}
	return total
}

// Snapshot persists the current state to SnapshotDir (§4.4). With
// SnapshotOptimized, request processing resumes almost immediately while
// the entry stream drains in background virtual time.
func (db *DB) Snapshot() error {
	if db.cfg.SnapshotDir == "" {
		return errors.New("shieldstore: no SnapshotDir configured")
	}
	for i := range db.parts {
		db.locks[i].Lock()
		err := db.parts[i].Snapshot(db.meters[i])
		db.locks[i].Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// VerifyIntegrity audits every bucket set and entry (defense-in-depth
// scrub; also run automatically after restore).
func (db *DB) VerifyIntegrity() error {
	for i := range db.parts {
		db.locks[i].Lock()
		err := db.parts[i].Main().VerifyAll(db.meters[i])
		db.locks[i].Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Stats reports aggregate simulator statistics for this DB.
type Stats struct {
	// Keys is the live key count.
	Keys int
	// VirtualSeconds is the busiest partition's virtual time.
	VirtualSeconds float64
	// Decryptions, EPCFaults, OCalls are headline simulator counters.
	Decryptions uint64
	EPCFaults   uint64
	OCalls      uint64
	// VLogSpills, VLogFaults, VLogGCCopies and VLogSegments summarize the
	// tiered value log: values written to disk, values faulted back on
	// read, GC relocations, and live segments across partitions.
	VLogSpills   uint64
	VLogFaults   uint64
	VLogGCCopies uint64
	VLogSegments uint64
	// UntrustedBytes and EnclaveBytes are the simulated region footprints.
	UntrustedBytes int64
	EnclaveBytes   int64
	// LatencyMeanUs, LatencyP50Us and LatencyP99Us summarize per-op
	// virtual latency (microseconds) of Get/Set operations.
	LatencyMeanUs float64
	LatencyP50Us  float64
	LatencyP99Us  float64
}

// Stats returns aggregate counters.
func (db *DB) Stats() Stats {
	st := db.meterStats()
	lat := &histo.Histogram{}
	for i := range db.parts {
		db.locks[i].Lock()
		lat.Merge(db.lats[i])
		db.locks[i].Unlock()
	}
	toUs := func(cycles uint64) float64 {
		return db.enclave.Model().Seconds(cycles) * 1e6
	}
	space := db.enclave.Space()
	return Stats{
		Keys:           db.Keys(),
		VirtualSeconds: db.enclave.Model().Seconds(st.Cycles),
		Decryptions:    st.Events[sim.CtrDecrypt],
		EPCFaults:      st.Events[sim.CtrEPCFaultRead] + st.Events[sim.CtrEPCFaultWrite],
		OCalls:         st.Events[sim.CtrOCall],
		VLogSpills:     st.Events[sim.CtrVLogSpill],
		VLogFaults:     st.Events[sim.CtrVLogFault],
		VLogGCCopies:   st.Events[sim.CtrVLogGCCopy],
		VLogSegments:   st.Events[sim.CtrVLogSegmentsLive],
		UntrustedBytes: space.UsedBytes(mem.Untrusted),
		EnclaveBytes:   space.UsedBytes(mem.Enclave),
		LatencyMeanUs:  db.enclave.Model().Seconds(uint64(lat.Mean())) * 1e6,
		LatencyP50Us:   toUs(lat.Quantile(0.5)),
		LatencyP99Us:   toUs(lat.Quantile(0.99)),
	}
}

// meterStats sums the partition meters' counters, each read under its
// partition lock, and keeps the busiest partition's clock.
func (db *DB) meterStats() sim.Stats {
	agg := sim.NewMeter(db.enclave.Model())
	for i := range db.parts {
		db.locks[i].Lock()
		agg.Add(db.meters[i])
		agg.SetCycles(max(agg.Cycles(), db.meters[i].Cycles()))
		db.locks[i].Unlock()
	}
	return agg.Snapshot()
}

// ServeOptions configures the network front-end.
type ServeOptions struct {
	// HotCalls uses exitless calls for socket syscalls (§6.4).
	HotCalls bool
	// Insecure disables session encryption (ablation only).
	Insecure bool
	// PipelineDepth bounds per-connection in-flight requests between the
	// reader and writer goroutines (0 = server default).
	PipelineDepth int
	// WriteBuffer sizes the per-connection coalescing write buffer in
	// bytes (0 = server default).
	WriteBuffer int
}

// Serve starts the remote-attested TCP front-end on ln. Close the
// returned server to stop. The DB remains usable locally.
func (db *DB) Serve(ln net.Listener, opts ServeOptions) *Server {
	s := server.Serve(ln, server.Config{
		Engine:        dbEngine{db},
		Enclave:       db.enclave,
		HotCalls:      opts.HotCalls,
		Secure:        !opts.Insecure,
		PipelineDepth: opts.PipelineDepth,
		WriteBuffer:   opts.WriteBuffer,
		Stats: func() []string {
			return core.FormatStats(db.enclave, db.Keys(), db.meterStats())
		},
		Health: func() []string {
			// Store.Health reads only atomics, so no partition locks are
			// needed — a health probe never queues behind a slow op.
			hs := make([]core.PartHealth, len(db.parts))
			for i := range db.parts {
				hs[i] = db.parts[i].Main().Health()
			}
			return core.FormatHealth(hs)
		},
	})
	return &Server{s: s}
}

// Server is a running network front-end.
type Server struct{ s *server.Server }

// Addr returns the listen address.
func (s *Server) Addr() net.Addr { return s.s.Addr() }

// Close stops the front-end.
func (s *Server) Close() { s.s.Close() }

// dbEngine adapts DB to the server engine interface (meters are managed
// by the DB's partitions, so the front-end meter argument is unused for
// engine work).
type dbEngine struct{ db *DB }

func (e dbEngine) Get(_ *sim.Meter, key []byte) ([]byte, error) { return e.db.Get(key) }
func (e dbEngine) Set(_ *sim.Meter, key, value []byte) error    { return e.db.Set(key, value) }
func (e dbEngine) Delete(_ *sim.Meter, key []byte) error        { return e.db.Delete(key) }
func (e dbEngine) Append(_ *sim.Meter, key, suffix []byte) error {
	return e.db.Append(key, suffix)
}
func (e dbEngine) Incr(_ *sim.Meter, key []byte, delta int64) (int64, error) {
	return e.db.Incr(key, delta)
}
func (e dbEngine) ExecBatch(_ *sim.Meter, ops []core.BatchOp) []core.BatchResult {
	return e.db.Batch(ops)
}

// Enclave exposes the simulated enclave (attestation verification in
// examples and tests plays the role of the attestation service).
func (db *DB) Enclave() *sgx.Enclave { return db.enclave }

// Close drains in-flight snapshots, destroys the key material (cipher
// keys, value-log keys, enclave key seed) and marks the DB closed. Close
// is the key-hygiene boundary: after it returns, no copy of the store's
// secrets survives in this process.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	for i := range db.parts {
		db.locks[i].Lock()
		db.parts[i].Drain(db.meters[i])
		if l := db.parts[i].Main().VLog(); l != nil {
			_ = l.Close()
		}
		db.locks[i].Unlock()
	}
	if db.cipher != nil {
		db.cipher.Wipe()
	}
	return db.enclave.Teardown()
}

func parseInt(b []byte) (int64, error) {
	var n int64
	neg := false
	i := 0
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		i = 1
	}
	if i == len(b) {
		return 0, errors.New("empty")
	}
	for ; i < len(b); i++ {
		if b[i] < '0' || b[i] > '9' {
			return 0, errors.New("not a digit")
		}
		n = n*10 + int64(b[i]-'0')
	}
	if neg {
		n = -n
	}
	return n, nil
}
