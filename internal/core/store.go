// Package core implements the ShieldStore engine — the paper's primary
// contribution (§4, §5).
//
// The main chained hash table lives entirely in *untrusted* memory; every
// data entry is individually encrypted and MACed by enclave code
// (internal/entry). Only the secret keys and the flattened-Merkle array of
// bucket-set MAC hashes (§4.3) are kept in enclave memory. The package
// also implements the paper's optimizations: the extra heap allocator
// (§5.1, internal/alloc), MAC bucketing (§5.2), hash-partitioned
// multithreading (§5.3, partition.go) and the 1-byte key hint with its
// two-step fallback search (§5.4), plus the optional EPC plaintext cache
// used in the Eleos comparison (§6.3, cache.go).
package core

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"shieldstore/internal/alloc"
	"shieldstore/internal/entry"
	"shieldstore/internal/fault"
	"shieldstore/internal/mem"
	"shieldstore/internal/merkle"
	"shieldstore/internal/sgx"
	"shieldstore/internal/sim"
	"shieldstore/internal/vlog"
)

// Errors returned by store operations.
var (
	// ErrNotFound reports a missing key.
	ErrNotFound = errors.New("shieldstore: key not found")
	// ErrIntegrity reports that untrusted memory failed MAC verification:
	// an entry, a MAC bucket, or a whole bucket set was tampered with or
	// replayed.
	ErrIntegrity = errors.New("shieldstore: integrity verification failed")
	// ErrCorruptPointer reports an untrusted pointer aliasing the enclave
	// address range (§7 pointer sanitization).
	ErrCorruptPointer = errors.New("shieldstore: untrusted pointer aliases enclave memory")
	// ErrNotNumeric reports an Incr on a non-numeric value.
	ErrNotNumeric = errors.New("shieldstore: value is not numeric")
	// ErrNoRangeIndex reports a Range call on a store built without
	// Options.RangeIndex.
	ErrNoRangeIndex = errors.New("shieldstore: range index not enabled")
)

// Options configures a Store. The zero value is unusable; use Defaults.
type Options struct {
	// Buckets is the number of hash buckets.
	Buckets int
	// MACHashes is the number of in-enclave MAC hash slots; must not
	// exceed Buckets. Each slot covers the bucket set {b : b ≡ slot
	// (mod MACHashes)}.
	MACHashes int
	// MACBucketCap is the number of MACs per MAC-bucket node (§5.2).
	MACBucketCap int
	// KeyHint enables the 1-byte key hint (§5.4).
	KeyHint bool
	// MACBucket enables MAC bucketing (§5.2). When disabled, bucket-set
	// verification chases entry chain pointers to gather MACs.
	MACBucket bool
	// ExtraHeap enables the §5.1 in-enclave allocator for untrusted
	// memory; when false every entry allocation is an OCALL.
	ExtraHeap bool
	// HeapChunk is the extra heap's sbrk granularity (default 16 MB).
	HeapChunk int
	// CacheBytes enables the in-enclave plaintext cache with the given
	// capacity (0 = disabled).
	CacheBytes int64
	// RangeIndex enables ordered range queries via an enclave-resident
	// skiplist over plaintext keys (the §7 future-work extension). Costs
	// EPC proportional to the key set; see internal/core/ordered.go.
	RangeIndex bool
	// Quarantine makes the partition isolate itself after the first
	// detected integrity violation: subsequent operations fail fast with
	// ErrQuarantined while sibling partitions keep serving (DESIGN.md
	// §10). Off by default — corruption tests probe a tampered store
	// repeatedly.
	Quarantine bool
	// MerkleTree replaces the flattened in-enclave MAC hashes (§4.3) with
	// the full Merkle tree the paper rejects: one leaf per bucket,
	// internal nodes in untrusted memory, only the 16-byte root in the
	// enclave. Exists to validate the paper's design choice by ablation
	// (BenchmarkAblationIntegrity); slower per §4.3's argument.
	MerkleTree bool
	// SpillThreshold is the minimum value size (bytes) eligible for
	// spilling to an attached value log (default 64). Inert until
	// AttachVLog installs a log.
	SpillThreshold int
	// MemBudget caps the inline (in-memory) value bytes before spilling
	// engages: values at or above SpillThreshold stay inline until the
	// budget is pressed. 0 means no budget — spill purely by threshold.
	MemBudget int64
}

// Defaults returns the ShieldOpt configuration for a given bucket count:
// all optimizations on, MAC hashes equal to buckets (capped), cache off.
func Defaults(buckets int) Options {
	return Options{
		Buckets:        buckets,
		MACHashes:      buckets,
		MACBucketCap:   30,
		KeyHint:        true,
		MACBucket:      true,
		ExtraHeap:      true,
		HeapChunk:      alloc.DefaultChunk,
		SpillThreshold: DefaultSpillThreshold,
	}
}

// DefaultSpillThreshold is the default minimum value size for value-log
// spilling (Options.SpillThreshold).
const DefaultSpillThreshold = 64

// Base returns the ShieldBase configuration: fine-grained encryption and
// integrity only, none of the §5 optimizations.
func Base(buckets int) Options {
	return Options{
		Buckets:      buckets,
		MACHashes:    buckets,
		MACBucketCap: 30,
	}
}

// MAC bucket node layout (untrusted memory):
//
//	0   8  next node address
//	8   4  count (head node only: MACs in this hash bucket)
//	12  4  reserved
//	16  -  MACs (MACBucketCap x 16 B)
const (
	macNodeHdr = 16
)

// Store is one ShieldStore instance (one partition in multithreaded
// deployments). A Store is not safe for concurrent use: the paper's
// hash-key partitioning gives every thread exclusive ownership of its
// partition precisely so no synchronization is needed (§5.3).
type Store struct {
	space   *mem.Space
	enclave *sgx.Enclave
	cipher  *entry.Cipher
	model   *sim.CostModel
	opts    Options

	heads    mem.Addr // untrusted: Buckets x 8 B chain heads
	macHeads mem.Addr // untrusted: Buckets x 8 B MAC-bucket heads (if enabled)
	macHash  mem.Addr // enclave: MACHashes x 16 B bucket-set MAC hashes

	heap    alloc.Allocator
	cache   *epcCache
	ordered *orderedIndex // non-nil when Options.RangeIndex
	tree    *merkle.Tree  // non-nil when Options.MerkleTree

	// Tiered hybrid storage (DESIGN.md §14): cold values live in the
	// untrusted value log, referenced by FlagSpilled pointer entries.
	vlog           *vlog.Log
	inlineValBytes int64 // in-memory value bytes (spill-budget accounting)

	keys int // number of live entries

	faults      *fault.Plane // optional injection plane (tests/experiments)
	quarantined atomic.Bool  // isolation latch (Options.Quarantine)
	rebuilding  atomic.Bool  // quarantined but a rebuild is in flight (scrub.go)
	journalLost atomic.Bool  // an attached op journal failed a write (partition.go)

	// quarantineHook, when set, runs once on the latch transition inside
	// noteErr (owner goroutine). Set before serving, like faults.
	quarantineHook func()

	// Background scrub cursor (scrub.go): next bucket-set index to verify
	// and completed full passes. Atomics because health probes read them
	// from other goroutines while the owning worker advances them.
	scrubPos    atomic.Int64
	scrubPasses atomic.Uint64

	// Cached setView backings. The Store is single-owner (§5.3) and at
	// most one view is live at a time, so collectSet reuses these across
	// operations instead of reallocating the four slices per request.
	// Regrown backings are written back in collectSet and writeSetHash.
	viewMacs    []byte
	viewBuckets []int
	viewOffs    []int
	viewCnts    []int
}

// New creates a store inside the given enclave. When cipher is nil a fresh
// key set is generated.
//
//ss:nopanic-ok(constructor contract; recovery paths validate decoded options in decodeMeta before calling)
func New(e *sgx.Enclave, cipher *entry.Cipher, opts Options) *Store {
	if opts.Buckets <= 0 {
		panic("core: Buckets must be positive")
	}
	if opts.MACHashes <= 0 || opts.MACHashes > opts.Buckets {
		opts.MACHashes = opts.Buckets
	}
	if opts.MerkleTree {
		// One leaf per bucket: the tree provides per-bucket granularity.
		opts.MACHashes = opts.Buckets
	}
	if opts.MACBucketCap <= 0 {
		opts.MACBucketCap = 30
	}
	if opts.SpillThreshold <= 0 {
		opts.SpillThreshold = DefaultSpillThreshold
	}
	setup := sim.NewMeter(e.Model())
	if cipher == nil {
		cipher = entry.NewCipher(e, setup)
	}
	s := &Store{
		space:   e.Space(),
		enclave: e,
		cipher:  cipher,
		model:   e.Model(),
		opts:    opts,
	}
	s.heads = s.space.Alloc(mem.Untrusted, opts.Buckets*8)
	if opts.MACBucket {
		s.macHeads = s.space.Alloc(mem.Untrusted, opts.Buckets*8)
	}
	if opts.MerkleTree {
		s.tree = merkle.New(s.space, cipher.MACEngine(), opts.Buckets)
	} else {
		// The MAC hash array is the dominant EPC consumer (§4.3); its
		// size is what Figure 15 sweeps. Zero-filled = "empty set".
		s.macHash = s.space.Alloc(mem.Enclave, opts.MACHashes*entry.MACSize)
	}
	if opts.ExtraHeap {
		s.heap = alloc.NewExtraHeap(e, opts.HeapChunk)
	} else {
		s.heap = alloc.NewOutside(e)
	}
	if opts.CacheBytes > 0 {
		s.cache = newEPCCache(e, opts.CacheBytes)
	}
	if opts.RangeIndex {
		s.ordered = newOrderedIndex(e.Space())
	}
	return s
}

// Options returns the store's configuration.
func (s *Store) Options() Options { return s.opts }

// Cipher returns the store's key material holder (for sealing).
func (s *Store) Cipher() *entry.Cipher { return s.cipher }

// Enclave returns the enclave the store runs in.
func (s *Store) Enclave() *sgx.Enclave { return s.enclave }

// Keys returns the number of live keys.
func (s *Store) Keys() int { return s.keys }

// bucketOf maps a key to its bucket via the keyed hash. The upper hash
// bits are used so that partition routing (low bits, partition.go) stays
// independent.
func (s *Store) bucketOf(m *sim.Meter, key []byte) int {
	h := s.cipher.BucketHash(m, key)
	return int((h >> 16) % uint64(s.opts.Buckets))
}

// headAddr returns the address of bucket b's chain head pointer.
func (s *Store) headAddr(b int) mem.Addr { return s.heads + mem.Addr(b*8) }

// macHeadAddr returns the address of bucket b's MAC-bucket head pointer.
func (s *Store) macHeadAddr(b int) mem.Addr { return s.macHeads + mem.Addr(b*8) }

// macHashAddr returns the enclave address of MAC hash slot i.
func (s *Store) macHashAddr(i int) mem.Addr {
	return s.macHash + mem.Addr(i*entry.MACSize)
}

// readPtr loads and sanitizes an untrusted chain pointer: it must not
// alias the enclave range (§7) and must point into allocated untrusted
// memory — a wild pointer would fault the process (availability attack).
func (s *Store) readPtr(m *sim.Meter, a mem.Addr) (mem.Addr, error) {
	p := mem.Addr(s.space.ReadU64(m, a))
	if err := mem.CheckUntrusted(p); err != nil {
		return 0, ErrCorruptPointer
	}
	if p != 0 && !s.space.InAllocated(p, entry.HeaderSize) {
		return 0, ErrCorruptPointer
	}
	return p, nil
}

// checkSpan validates that an untrusted read of n bytes at a stays inside
// allocated memory (tampered size fields could otherwise walk off the
// heap).
func (s *Store) checkSpan(a mem.Addr, n int) error {
	if !s.space.InAllocated(a, n) {
		return ErrCorruptPointer
	}
	return nil
}

// lookup is the result of a chain search.
type lookup struct {
	bucket   int
	found    bool
	addr     mem.Addr // entry address
	prevLink mem.Addr // address of the pointer linking to this entry
	hdr      entry.Header
	val      []byte // decrypted value (valid when found)
	chainIdx int    // position from head (for chain-ordered MAC sets)
	chainLen int    // entries walked in the bucket (>= chainIdx+1)
}

// search walks bucket b's chain looking for key. With key hints enabled it
// first decrypts only hint-matching candidates; if that pass misses, the
// two-step fallback (§5.4) decrypts everything, which both serves inserts
// and defeats hint-corruption availability attacks.
func (s *Store) search(m *sim.Meter, b int, key []byte) (lookup, error) {
	hint := byte(0)
	if s.opts.KeyHint {
		hint = s.cipher.KeyHint(m, key)
	}
	res, err := s.walk(m, b, key, s.opts.KeyHint, hint)
	if err != nil || res.found || !s.opts.KeyHint {
		return res, err
	}
	// Two-step fallback: full decrypting search.
	return s.walk(m, b, key, false, 0)
}

// walk performs one pass over the chain. useHint limits decryption to
// hint-matching entries.
func (s *Store) walk(m *sim.Meter, b int, key []byte, useHint bool, hint byte) (lookup, error) {
	res := lookup{bucket: b}
	link := s.headAddr(b)
	cur, err := s.readPtr(m, link)
	if err != nil {
		return res, err
	}
	var hdrBuf [entry.HeaderSize]byte
	idx := 0
	for cur != 0 {
		m.Count(sim.CtrEntryVisited)
		s.space.Read(m, cur, hdrBuf[:])
		hdr := entry.ParseHeader(hdrBuf[:])
		if err := mem.CheckUntrusted(hdr.Next); err != nil {
			return res, ErrCorruptPointer
		}
		if hdr.Next != 0 && !s.space.InAllocated(hdr.Next, entry.HeaderSize) {
			return res, ErrCorruptPointer
		}
		// Sanity-bound sizes before trusting them for a read.
		if hdr.CTLen() > 64<<20 {
			return res, ErrIntegrity
		}
		if err := s.checkSpan(cur+entry.HeaderSize, hdr.CTLen()); err != nil {
			return res, err
		}
		tryDecrypt := !useHint || hdr.KeyHint == hint
		if tryDecrypt && int(hdr.KeySize) == len(key) {
			ctp := getScratch(hdr.CTLen())
			ct := *ctp
			s.space.Read(m, cur+entry.HeaderSize, ct)
			ptp := getScratch(len(ct))
			pt := *ptp
			s.cipher.DecryptKV(m, &hdr.IV, ct, pt)
			putScratch(ctp)
			if string(pt[:hdr.KeySize]) == string(key) {
				res.found = true
				res.addr = cur
				res.prevLink = link
				res.hdr = hdr
				// The value escapes to the caller, so this one plaintext
				// buffer is not returned to the pool.
				res.val = pt[hdr.KeySize:]
				res.chainIdx = idx
				res.chainLen = idx + 1
				return res, nil
			}
			putScratch(ptp)
		}
		link = cur + entry.OffNext
		cur = hdr.Next
		idx++
		if idx > s.keys {
			// No chain can hold more than every live entry: a longer walk
			// means the host spliced a cycle or grafted foreign nodes.
			return res, ErrIntegrity
		}
	}
	res.chainLen = idx
	return res, nil
}

// setView is the gathered MAC material of one bucket set, used both to
// verify the current in-enclave MAC hash and to splice in a mutation
// without a second collection pass.
type setView struct {
	macIdx  int
	macs    []byte // concatenated entry MACs, canonical order
	buckets []int  // buckets in the set, ascending
	offs    []int  // byte offset of each bucket's first MAC in macs
	cnts    []int  // entry count per bucket
}

// bucketOffset returns the offset and count of bucket b inside the view.
// ok is false when b is not covered by the view — a state only tampered
// metadata can produce, so callers surface it as ErrIntegrity.
func (v *setView) bucketOffset(b int) (off, cnt int, ok bool) {
	for i, bb := range v.buckets {
		if bb == b {
			return v.offs[i], v.cnts[i], true
		}
	}
	return 0, 0, false
}

// collectSet gathers the MACs of every bucket covered by b's MAC hash
// slot. With MAC bucketing the sidecar arrays are read (few sequential
// reads); without it, every entry chain is pointer-chased and each entry's
// MAC field read individually — the §5.2 overhead.
func (s *Store) collectSet(m *sim.Meter, b int) (setView, error) {
	v := setView{
		macs:    s.viewMacs[:0],
		buckets: s.viewBuckets[:0],
		offs:    s.viewOffs[:0],
		cnts:    s.viewCnts[:0],
	}
	err := s.collectSetInto(m, b, &v)
	// Write the (possibly regrown) backings back so the next collection
	// starts from the largest capacity seen.
	s.viewMacs, s.viewBuckets, s.viewOffs, s.viewCnts = v.macs, v.buckets, v.offs, v.cnts
	return v, err
}

func (s *Store) collectSetInto(m *sim.Meter, b int, v *setView) error {
	s.injectFaults(m, b)
	if s.tree != nil {
		// Merkle mode: every bucket is its own leaf.
		v.macIdx = b
		v.buckets = append(v.buckets, b)
		v.offs = append(v.offs, 0)
		var cnt int
		var err error
		if s.opts.MACBucket {
			v.macs, cnt, err = s.readMACBucket(m, b, v.macs)
		} else {
			v.macs, cnt, err = s.readChainMACs(m, b, v.macs)
		}
		if err != nil {
			return err
		}
		v.cnts = append(v.cnts, cnt)
		return nil
	}
	v.macIdx = b % s.opts.MACHashes
	for bb := v.macIdx; bb < s.opts.Buckets; bb += s.opts.MACHashes {
		v.buckets = append(v.buckets, bb)
		v.offs = append(v.offs, len(v.macs))
		var cnt int
		var err error
		if s.opts.MACBucket {
			v.macs, cnt, err = s.readMACBucket(m, bb, v.macs)
		} else {
			v.macs, cnt, err = s.readChainMACs(m, bb, v.macs)
		}
		if err != nil {
			return err
		}
		v.cnts = append(v.cnts, cnt)
	}
	return nil
}

// readMACBucket appends bucket bb's sidecar MACs (slot order) to dst.
func (s *Store) readMACBucket(m *sim.Meter, bb int, dst []byte) ([]byte, int, error) {
	node, err := s.readPtr(m, s.macHeadAddr(bb))
	if err != nil {
		return dst, 0, err
	}
	if node == 0 {
		return dst, 0, nil
	}
	var cntBuf [4]byte
	s.space.Read(m, node+8, cntBuf[:])
	cnt := int(leU32(cntBuf[:]))
	if cnt < 0 || cnt > 1<<24 {
		return dst, 0, ErrIntegrity
	}
	remaining := cnt
	for node != 0 && remaining > 0 {
		take := remaining
		if take > s.opts.MACBucketCap {
			take = s.opts.MACBucketCap
		}
		// Grow dst and read the node's MACs straight into the tail —
		// no per-node staging buffer. A tampered node pointer may land on
		// an allocation too small for a full MAC area.
		if err := s.checkSpan(node+macNodeHdr, take*entry.MACSize); err != nil {
			return dst, 0, err
		}
		off := len(dst)
		dst = growBytes(dst, take*entry.MACSize)
		s.space.Read(m, node+macNodeHdr, dst[off:])
		remaining -= take
		node, err = s.readPtr(m, node)
		if err != nil {
			return dst, 0, err
		}
	}
	if remaining > 0 {
		return dst, 0, ErrIntegrity // sidecar chain shorter than its count
	}
	return dst, cnt, nil
}

// readChainMACs appends bucket bb's entry MACs in chain order to dst by
// walking the data entries themselves.
func (s *Store) readChainMACs(m *sim.Meter, bb int, dst []byte) ([]byte, int, error) {
	cur, err := s.readPtr(m, s.headAddr(bb))
	if err != nil {
		return dst, 0, err
	}
	cnt := 0
	var macBuf [entry.MACSize]byte
	for cur != 0 {
		s.space.Read(m, cur+entry.OffMAC, macBuf[:])
		dst = append(dst, macBuf[:]...)
		cnt++
		cur, err = s.readPtr(m, cur+entry.OffNext)
		if err != nil {
			return dst, 0, err
		}
		if cnt > s.keys {
			return dst, 0, ErrIntegrity // cycle in tampered chain
		}
	}
	return dst, cnt, nil
}

// verifySet checks the collected MACs against the in-enclave MAC hash.
// The enclave-side read is a real enclave memory access, so large MAC hash
// arrays push into EPC paging exactly as Figure 15 shows.
func (s *Store) verifySet(m *sim.Meter, v *setView) error {
	if s.tree != nil {
		return s.verifyLeafMerkle(m, v)
	}
	var stored [entry.MACSize]byte
	s.space.Read(m, s.macHashAddr(v.macIdx), stored[:])
	if len(v.macs) == 0 {
		for _, x := range stored {
			if x != 0 {
				return ErrIntegrity
			}
		}
		return nil
	}
	want := s.cipher.SetMAC(m, v.macs)
	if subtle.ConstantTimeCompare(want[:], stored[:]) != 1 {
		return ErrIntegrity
	}
	return nil
}

// writeSetHash recomputes and stores the MAC hash for a (modified) view.
//
//ss:enclave-write — the MAC hash array is enclave-resident.
func (s *Store) writeSetHash(m *sim.Meter, v *setView) {
	var h [entry.MACSize]byte
	if len(v.macs) > 0 {
		h = s.cipher.SetMAC(m, v.macs)
	}
	// Mutations splice MACs in and out of the view; if that regrew the
	// backing, keep the larger one for the next collectSet.
	if cap(v.macs) > cap(s.viewMacs) {
		s.viewMacs = v.macs
	}
	if s.tree != nil {
		s.tree.UpdateLeaf(m, v.macIdx, h)
		return
	}
	s.space.Write(m, s.macHashAddr(v.macIdx), h[:])
}

// verifyLeafMerkle authenticates a bucket's MAC list through the Merkle
// tree path to the enclave root.
func (s *Store) verifyLeafMerkle(m *sim.Meter, v *setView) error {
	var leaf [entry.MACSize]byte
	if len(v.macs) > 0 {
		leaf = s.cipher.SetMAC(m, v.macs)
	}
	if err := s.tree.VerifyLeaf(m, v.macIdx, leaf); err != nil {
		return ErrIntegrity
	}
	return nil
}

// positionOf returns the byte offset of the entry's MAC inside the view:
// slot order under MAC bucketing, chain order otherwise.
func (s *Store) positionOf(v *setView, res *lookup) (int, error) {
	off, cnt, ok := v.bucketOffset(res.bucket)
	if !ok {
		return 0, ErrIntegrity
	}
	pos := res.chainIdx
	if s.opts.MACBucket {
		pos = int(res.hdr.Slot)
	}
	if pos < 0 || pos >= cnt {
		return 0, ErrIntegrity
	}
	return off + pos*entry.MACSize, nil
}

// verifyMissChain guards the not-found path under MAC bucketing. The set
// hash authenticates the *sidecar*, but a malicious host could unlink an
// entry from the data chain (or substitute a decoy) without touching the
// sidecar, turning a present key into a verified miss. Before reporting
// ErrNotFound, the chain is therefore cross-checked against the sidecar:
// every entry's slot must be unique and its MAC field must equal the
// sidecar MAC at that slot, and the chain length must match the sidecar
// count. (Without MAC bucketing the set hash is computed from the chain
// itself, so misses are self-verifying.)
//
//ss:nopanic-ok(slot is range-checked against the sidecar count before any MAC slicing)
func (s *Store) verifyMissChain(m *sim.Meter, v *setView, b int) error {
	if !s.opts.MACBucket {
		return nil
	}
	off, cnt, ok := v.bucketOffset(b)
	if !ok {
		return ErrIntegrity
	}
	seen := make([]bool, cnt)
	cur, err := s.readPtr(m, s.headAddr(b))
	if err != nil {
		return err
	}
	n := 0
	var hdrBuf [entry.HeaderSize]byte
	for cur != 0 {
		s.space.Read(m, cur, hdrBuf[:])
		hdr := entry.ParseHeader(hdrBuf[:])
		slot := int(hdr.Slot)
		if slot < 0 || slot >= cnt || seen[slot] {
			return ErrIntegrity
		}
		if subtle.ConstantTimeCompare(hdr.MAC[:], v.macs[off+slot*entry.MACSize:off+(slot+1)*entry.MACSize]) != 1 {
			return ErrIntegrity
		}
		seen[slot] = true
		n++
		if err := mem.CheckUntrusted(hdr.Next); err != nil {
			return ErrCorruptPointer
		}
		if hdr.Next != 0 && !s.space.InAllocated(hdr.Next, entry.HeaderSize) {
			return ErrCorruptPointer
		}
		cur = hdr.Next
		if n > cnt {
			return ErrIntegrity
		}
	}
	if n != cnt {
		return ErrIntegrity
	}
	return nil
}

// verifyEntry authenticates the found entry's content against the MAC
// covered by the set hash (the sidecar slot under MAC bucketing).
//
//ss:nopanic-ok(positionOf validates the slot before returning an offset)
func (s *Store) verifyEntry(m *sim.Meter, v *setView, res *lookup) error {
	p, err := s.positionOf(v, res)
	if err != nil {
		return err
	}
	authoritative := v.macs[p : p+entry.MACSize]
	// Reconstruct ciphertext from the decrypted plaintext we already hold
	// (cheaper than re-reading untrusted memory; the plaintext is in the
	// enclave). Encryption cost is not re-charged: this is the same pass.
	ctp := getScratch(res.hdr.CTLen())
	defer putScratch(ctp)
	ct := *ctp
	s.space.Peek(res.addr+entry.HeaderSize, ct)
	if !s.cipher.VerifyEntryMAC(m, &res.hdr, ct, authoritative) {
		return ErrIntegrity
	}
	return nil
}

// Get returns the value stored under key.
//
//ss:attacker — keys arrive from the wire; chains live in untrusted memory.
func (s *Store) Get(m *sim.Meter, key []byte) (val []byte, err error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	defer func() { s.noteErr(m, err) }()
	m.Charge(s.model.RequestOverhead)
	m.Count(sim.CtrRequest)
	b := s.bucketOf(m, key)

	if s.cache != nil {
		if val, ok := s.cache.get(m, key); ok {
			return val, nil
		}
	}

	v, err := s.collectSet(m, b)
	if err != nil {
		return nil, err
	}
	if err := s.verifySet(m, &v); err != nil {
		return nil, err
	}
	return s.getInView(m, &v, b, key)
}

// getInView serves a Get against an already collected and verified bucket
// set. Shared by the single-op path and ApplyBatch.
func (s *Store) getInView(m *sim.Meter, v *setView, b int, key []byte) ([]byte, error) {
	res, err := s.search(m, b, key)
	if err != nil {
		return nil, err
	}
	if !res.found {
		if err := s.verifyMiss(m, v, b); err != nil {
			return nil, err
		}
		return nil, ErrNotFound
	}
	if err := s.verifyEntry(m, v, &res); err != nil {
		return nil, err
	}
	val := res.val
	if res.hdr.Flags&entry.FlagSpilled != 0 {
		// Cold tier: fault the value back from the value log. The cache
		// put below promotes it, making the LRU cache the hot tier.
		_, val, err = s.faultSpilled(m, key, res.val)
		if err != nil {
			return nil, err
		}
	}
	if s.cache != nil {
		s.cache.put(m, key, val)
	}
	return val, nil
}

// verifyMiss authenticates a not-found result before it is *reported*.
// Structural cross-checking (verifyMissChain) alone leaves a phantom-miss
// gap: corrupting an entry's ciphertext garbles its decrypted key without
// touching the MACs the set hash covers, turning a present key into a
// structurally clean miss. Reported misses therefore also re-authenticate
// every entry's content against the verified MAC material. Insert misses
// skip this (mutateInView): nothing is reported to the client, and the
// corruption is still caught by the first read or scrub that touches the
// bucket — the lazy-detection tradeoff documented in DESIGN.md §10.
func (s *Store) verifyMiss(m *sim.Meter, v *setView, b int) error {
	if err := s.verifyMissChain(m, v, b); err != nil {
		return err
	}
	return s.verifyBucketEntries(m, v, b)
}

// Set stores value under key, inserting or updating in place.
//
//ss:attacker — keys/values arrive from the wire.
func (s *Store) Set(m *sim.Meter, key, value []byte) error {
	m.Charge(s.model.RequestOverhead)
	m.Count(sim.CtrRequest)
	return s.mutate(m, key, false, func(_ []byte, _ bool) ([]byte, error) {
		return value, nil
	})
}

// Append appends suffix to the existing value (server-side computation,
// §3.2/§6.2). A missing key is created with suffix as its value, matching
// Redis APPEND semantics.
//
//ss:attacker — keys/suffixes arrive from the wire.
func (s *Store) Append(m *sim.Meter, key, suffix []byte) error {
	m.Charge(s.model.RequestOverhead)
	m.Count(sim.CtrRequest)
	return s.mutate(m, key, true, appendMutator(suffix))
}

// appendMutator builds the Append value transform (shared with the batch
// path).
func appendMutator(suffix []byte) func(old []byte, found bool) ([]byte, error) {
	return func(old []byte, found bool) ([]byte, error) {
		if !found {
			return suffix, nil
		}
		nv := make([]byte, 0, len(old)+len(suffix))
		nv = append(nv, old...)
		nv = append(nv, suffix...)
		return nv, nil
	}
}

// Incr adds delta to a decimal-encoded value, creating it at delta when
// missing, and returns the new number.
//
//ss:attacker — keys arrive from the wire.
func (s *Store) Incr(m *sim.Meter, key []byte, delta int64) (int64, error) {
	m.Charge(s.model.RequestOverhead)
	m.Count(sim.CtrRequest)
	var out int64
	err := s.mutate(m, key, true, incrMutator(delta, &out))
	return out, err
}

// incrMutator builds the Incr value transform, writing the post-increment
// number to out (shared with the batch path).
func incrMutator(delta int64, out *int64) func(old []byte, found bool) ([]byte, error) {
	return func(old []byte, found bool) ([]byte, error) {
		cur := int64(0)
		if found {
			n, err := strconv.ParseInt(string(old), 10, 64)
			if err != nil {
				return nil, ErrNotNumeric
			}
			cur = n
		}
		*out = cur + delta
		return strconv.AppendInt(nil, *out, 10), nil
	}
}

// Delete removes key, returning ErrNotFound when absent.
//
//ss:attacker — keys arrive from the wire.
func (s *Store) Delete(m *sim.Meter, key []byte) (err error) {
	if err := s.guard(); err != nil {
		return err
	}
	defer func() { s.noteErr(m, err) }()
	m.Charge(s.model.RequestOverhead)
	m.Count(sim.CtrRequest)
	b := s.bucketOf(m, key)
	v, err := s.collectSet(m, b)
	if err != nil {
		return err
	}
	if err := s.verifySet(m, &v); err != nil {
		return err
	}
	if err := s.deleteInView(m, &v, b, key); err != nil {
		return err
	}
	s.writeSetHash(m, &v)
	return nil
}

// deleteInView removes key from an already verified bucket set, updating
// the view in place. The caller commits the view with writeSetHash;
// batches do so once per set after all of the set's deletions.
//
//ss:nopanic-ok(offsets derive from positionOf and the sidecar view's own materialized length)
func (s *Store) deleteInView(m *sim.Meter, v *setView, b int, key []byte) error {
	res, err := s.search(m, b, key)
	if err != nil {
		return err
	}
	if !res.found {
		if err := s.verifyMiss(m, v, b); err != nil {
			return err
		}
		return ErrNotFound
	}
	if err := s.verifyEntry(m, v, &res); err != nil {
		return err
	}

	// Unlink from the data chain.
	s.space.WriteU64(m, res.prevLink, uint64(res.hdr.Next))

	// Remove the MAC from the set view (and sidecar).
	p, err := s.positionOf(v, &res)
	if err != nil {
		return err
	}
	off, cnt, ok := v.bucketOffset(res.bucket)
	if !ok {
		return ErrIntegrity
	}
	if s.opts.MACBucket {
		last := off + (cnt-1)*entry.MACSize
		if p != last {
			// Move the last slot's MAC into the hole and repoint the
			// entry that owned it.
			copy(v.macs[p:p+entry.MACSize], v.macs[last:last+entry.MACSize])
			s.writeSidecarSlot(m, res.bucket, int(res.hdr.Slot), v.macs[p:p+entry.MACSize])
			if err := s.reslotEntry(m, res.bucket, uint32(cnt-1), res.hdr.Slot); err != nil {
				return err
			}
		}
		s.setSidecarCount(m, res.bucket, cnt-1)
		v.macs = spliceOut(v.macs, last)
	} else {
		v.macs = spliceOut(v.macs, p)
	}
	s.shiftCounts(v, res.bucket, -1)

	if s.cache != nil {
		s.cache.invalidate(m, key)
	}
	if s.ordered != nil {
		s.ordered.remove(m, key)
	}
	// Tier accounting: a spilled entry's log record becomes garbage.
	if res.hdr.Flags&entry.FlagSpilled != 0 {
		if p, derr := s.decodeSpilled(res.val); derr == nil {
			s.vlog.MarkDead(m, p)
		}
	} else {
		s.inlineValBytes -= int64(len(res.val))
	}
	s.heap.Free(m, res.addr, res.hdr.TotalLen())
	s.keys--
	return nil
}

// mutate implements set/append/incr: search, verify, then update in place,
// replace (size change), or insert at the chain head. needOld marks
// mutators that read the previous value (append/incr): only those fault a
// spilled old value back from the value log.
func (s *Store) mutate(m *sim.Meter, key []byte, needOld bool, f func(old []byte, found bool) ([]byte, error)) (err error) {
	if err := s.guard(); err != nil {
		return err
	}
	defer func() { s.noteErr(m, err) }()
	b := s.bucketOf(m, key)
	v, err := s.collectSet(m, b)
	if err != nil {
		return err
	}
	if err := s.verifySet(m, &v); err != nil {
		return err
	}
	if err := s.mutateInView(m, &v, b, key, needOld, f); err != nil {
		return err
	}
	s.writeSetHash(m, &v)
	return nil
}

// mutateInView applies one set/append/incr against an already verified
// bucket set, updating the view in place without committing it. The
// caller runs writeSetHash — once per op on the single-op path, once per
// touched set per batch in ApplyBatch (the amortization this layering
// exists for).
func (s *Store) mutateInView(m *sim.Meter, v *setView, b int, key []byte, needOld bool, f func(old []byte, found bool) ([]byte, error)) error {
	res, err := s.search(m, b, key)
	if err != nil {
		return err
	}
	if res.found {
		if err := s.verifyEntry(m, v, &res); err != nil {
			return err
		}
	} else if err := s.verifyMissChain(m, v, b); err != nil {
		return err
	}

	var oldVal []byte
	var oldPtr vlog.Ptr
	oldSpilled := res.found && res.hdr.Flags&entry.FlagSpilled != 0
	if res.found {
		oldVal = res.val
		if oldSpilled {
			if needOld {
				// Append/incr transform the previous value: fault it in.
				oldPtr, oldVal, err = s.faultSpilled(m, key, res.val)
			} else {
				oldPtr, err = s.decodeSpilled(res.val)
				oldVal = nil
			}
			if err != nil {
				return err
			}
		}
	}
	newVal, err := f(oldVal, res.found)
	if err != nil {
		return err
	}

	// Pick the stored representation: inline bytes, or a pointer to a
	// freshly appended value-log record.
	stored, flags := newVal, byte(0)
	if s.shouldSpill(newVal) {
		ptr, err := s.vlog.Append(m, key, newVal)
		if err != nil {
			return err
		}
		var pb [vlog.PtrSize]byte
		ptr.Encode(pb[:])
		stored, flags = pb[:], entry.FlagSpilled
		m.Count(sim.CtrVLogSpill)
	}

	if !res.found {
		err = s.insert(m, v, b, key, stored, flags)
	} else if len(stored) == len(res.val) && flags == res.hdr.Flags&entry.FlagSpilled {
		err = s.updateInPlace(m, v, &res, key, stored)
	} else {
		err = s.replace(m, v, &res, key, stored, flags)
	}
	if err != nil {
		return err
	}

	// Tier accounting: the old representation is garbage, the new one live.
	if oldSpilled {
		s.vlog.MarkDead(m, oldPtr)
	} else if res.found {
		s.inlineValBytes -= int64(len(res.val))
	}
	if flags&entry.FlagSpilled == 0 {
		s.inlineValBytes += int64(len(stored))
	}
	if s.cache != nil {
		s.cache.update(m, key, newVal)
	}
	return nil
}

// insert creates a new entry at the head of bucket b's chain. flags
// marks spilled (pointer-valued) entries; it is MAC-authenticated with
// the rest of the header.
func (s *Store) insert(m *sim.Meter, v *setView, b int, key, val []byte, flags byte) error {
	oldHead, err := s.readPtr(m, s.headAddr(b))
	if err != nil {
		return err
	}
	off, cnt, ok := v.bucketOffset(b)
	if !ok {
		return ErrIntegrity
	}

	hdr := entry.Header{
		Next:    oldHead,
		Slot:    uint32(cnt),
		Flags:   flags,
		KeySize: uint32(len(key)),
		ValSize: uint32(len(val)),
	}
	if s.opts.KeyHint {
		hdr.KeyHint = s.cipher.KeyHint(m, key)
	}
	s.cipher.NewIV(m, &hdr.IV)

	ctp := getScratch(len(key) + len(val))
	defer putScratch(ctp)
	ct := *ctp
	s.cipher.EncryptKV(m, &hdr.IV, key, val, ct)
	hdr.MAC = s.cipher.EntryMAC(m, &hdr, ct)

	addr := s.heap.Alloc(m, hdr.TotalLen())
	s.writeEntry(m, addr, &hdr, ct)
	s.space.WriteU64(m, s.headAddr(b), uint64(addr))

	if s.opts.MACBucket {
		if err := s.appendSidecar(m, b, cnt, hdr.MAC[:]); err != nil {
			return err
		}
		// Slot order: new MAC goes after the bucket's existing MACs.
		v.macs = spliceIn(v.macs, off+cnt*entry.MACSize, hdr.MAC[:])
	} else {
		// Chain order: new head goes first.
		v.macs = spliceIn(v.macs, off, hdr.MAC[:])
	}
	s.shiftCounts(v, b, +1)
	if s.ordered != nil {
		s.ordered.insert(m, key)
	}
	s.keys++
	return nil
}

// updateInPlace overwrites an entry whose value size is unchanged, bumping
// the IV/counter (§4.2).
//
//ss:nopanic-ok(positionOf validates the slot before returning an offset)
func (s *Store) updateInPlace(m *sim.Meter, v *setView, res *lookup, key, val []byte) error {
	hdr := res.hdr
	hdr.BumpIV()
	ctp := getScratch(hdr.CTLen())
	defer putScratch(ctp)
	ct := *ctp
	s.cipher.EncryptKV(m, &hdr.IV, key, val, ct)
	hdr.MAC = s.cipher.EntryMAC(m, &hdr, ct)

	s.writeEntry(m, res.addr, &hdr, ct)

	p, err := s.positionOf(v, res)
	if err != nil {
		return err
	}
	copy(v.macs[p:p+entry.MACSize], hdr.MAC[:])
	if s.opts.MACBucket {
		s.writeSidecarSlot(m, res.bucket, int(hdr.Slot), hdr.MAC[:])
	}
	return nil
}

// replace swaps an entry for a differently-sized one, keeping its chain
// position and sidecar slot.
//
//ss:nopanic-ok(positionOf validates the slot before returning an offset)
func (s *Store) replace(m *sim.Meter, v *setView, res *lookup, key, val []byte, flags byte) error {
	hdr := entry.Header{
		Next:    res.hdr.Next,
		Slot:    res.hdr.Slot,
		KeyHint: res.hdr.KeyHint,
		Flags:   flags,
		KeySize: uint32(len(key)),
		ValSize: uint32(len(val)),
	}
	s.cipher.NewIV(m, &hdr.IV)
	ctp := getScratch(hdr.CTLen())
	defer putScratch(ctp)
	ct := *ctp
	s.cipher.EncryptKV(m, &hdr.IV, key, val, ct)
	hdr.MAC = s.cipher.EntryMAC(m, &hdr, ct)

	addr := s.heap.Alloc(m, hdr.TotalLen())
	s.writeEntry(m, addr, &hdr, ct)
	s.space.WriteU64(m, res.prevLink, uint64(addr))
	s.heap.Free(m, res.addr, res.hdr.TotalLen())

	p, err := s.positionOf(v, res)
	if err != nil {
		return err
	}
	copy(v.macs[p:p+entry.MACSize], hdr.MAC[:])
	if s.opts.MACBucket {
		s.writeSidecarSlot(m, res.bucket, int(hdr.Slot), hdr.MAC[:])
	}
	return nil
}

// writeEntry serializes header+ciphertext into untrusted memory.
//
//ss:seals — writes header/IV/MAC/ciphertext; no plaintext leaves the enclave.
func (s *Store) writeEntry(m *sim.Meter, addr mem.Addr, hdr *entry.Header, ct []byte) {
	bp := getScratch(entry.HeaderSize + len(ct))
	defer putScratch(bp)
	buf := *bp
	hdr.Marshal(buf)
	copy(buf[entry.HeaderSize:], ct)
	s.space.Write(m, addr, buf)
}

// shiftCounts adjusts the per-bucket counts and subsequent offsets of a
// view after an insert (+1) or delete (-1) in bucket b.
func (s *Store) shiftCounts(v *setView, b int, delta int) {
	seen := false
	for i, bb := range v.buckets {
		if seen {
			v.offs[i] += delta * entry.MACSize
		}
		if bb == b {
			v.cnts[i] += delta
			seen = true
		}
	}
}

// --- MAC bucket (sidecar) maintenance ---

// sidecarNodeSize returns the byte size of one MAC bucket node.
func (s *Store) sidecarNodeSize() int {
	return macNodeHdr + s.opts.MACBucketCap*entry.MACSize
}

// sidecarSlotAddr locates slot idx of bucket b, returning 0 when the node
// chain is too short.
func (s *Store) sidecarSlotAddr(m *sim.Meter, b, idx int) (mem.Addr, error) {
	node, err := s.readPtr(m, s.macHeadAddr(b))
	if err != nil {
		return 0, err
	}
	for skip := idx / s.opts.MACBucketCap; skip > 0 && node != 0; skip-- {
		node, err = s.readPtr(m, node)
		if err != nil {
			return 0, err
		}
	}
	if node == 0 {
		return 0, nil
	}
	return node + mem.Addr(macNodeHdr+(idx%s.opts.MACBucketCap)*entry.MACSize), nil
}

// writeSidecarSlot overwrites one sidecar MAC.
//
//ss:seals — sidecar slots hold MAC tags, not secrets.
func (s *Store) writeSidecarSlot(m *sim.Meter, b, idx int, mac []byte) {
	a, err := s.sidecarSlotAddr(m, b, idx)
	if err != nil || a == 0 || s.checkSpan(a, len(mac)) != nil {
		return // corrupt sidecar surfaces as ErrIntegrity on next verify
	}
	s.space.Write(m, a, mac)
}

// appendSidecar adds a MAC at slot idx (== current count), growing the
// node chain when the tail node is full.
//
//ss:seals — sidecar nodes hold MAC tags and pointers, not secrets.
func (s *Store) appendSidecar(m *sim.Meter, b, idx int, mac []byte) error {
	head, err := s.readPtr(m, s.macHeadAddr(b))
	if err != nil {
		return err
	}
	if head == 0 {
		head = s.newSidecarNode(m)
		s.space.WriteU64(m, s.macHeadAddr(b), uint64(head))
	}
	// Walk to the node holding slot idx, extending as needed.
	node := head
	for skip := idx / s.opts.MACBucketCap; skip > 0; skip-- {
		next, err := s.readPtr(m, node)
		if err != nil {
			return err
		}
		if next == 0 {
			next = s.newSidecarNode(m)
			s.space.WriteU64(m, node, uint64(next))
		}
		node = next
	}
	slot := node + mem.Addr(macNodeHdr+(idx%s.opts.MACBucketCap)*entry.MACSize)
	if err := s.checkSpan(slot, len(mac)); err != nil {
		return err
	}
	s.space.Write(m, slot, mac)
	s.setSidecarCount(m, b, idx+1)
	return nil
}

// newSidecarNode allocates a zeroed MAC bucket node.
//
//ss:seals — fresh sidecar nodes carry zeroed MAC slots.
func (s *Store) newSidecarNode(m *sim.Meter) mem.Addr {
	a := s.heap.Alloc(m, s.sidecarNodeSize())
	zero := make([]byte, macNodeHdr)
	s.space.Write(m, a, zero)
	return a
}

// setSidecarCount stores bucket b's MAC count in its head node.
//
//ss:seals — sidecar counts are allocator metadata.
func (s *Store) setSidecarCount(m *sim.Meter, b, cnt int) {
	head, err := s.readPtr(m, s.macHeadAddr(b))
	if err != nil || head == 0 {
		return
	}
	var buf [4]byte
	putLeU32(buf[:], uint32(cnt))
	s.space.Write(m, head+8, buf[:])
}

// reslotEntry finds the entry in bucket b whose sidecar slot is `from` and
// rewrites it to `to` (delete compaction).
//
//ss:seals — moves MAC tags and rewrites a plaintext-free slot field.
func (s *Store) reslotEntry(m *sim.Meter, b int, from, to uint32) error {
	cur, err := s.readPtr(m, s.headAddr(b))
	if err != nil {
		return err
	}
	var hdrBuf [entry.HeaderSize]byte
	n := 0
	for cur != 0 {
		s.space.Read(m, cur, hdrBuf[:])
		hdr := entry.ParseHeader(hdrBuf[:])
		if hdr.Slot == from {
			var sb [4]byte
			putLeU32(sb[:], to)
			s.space.Write(m, cur+entry.OffSlot, sb[:])
			return nil
		}
		if err := mem.CheckUntrusted(hdr.Next); err != nil {
			return ErrCorruptPointer
		}
		if hdr.Next != 0 && !s.space.InAllocated(hdr.Next, entry.HeaderSize) {
			return ErrCorruptPointer
		}
		cur = hdr.Next
		if n++; n > s.keys {
			return ErrIntegrity // cycle spliced into tampered chain
		}
	}
	return ErrIntegrity
}

// --- maintenance / persistence hooks ---

// VerifyAll performs a full integrity audit: every bucket set's MAC list
// is checked against its in-enclave MAC hash, every entry's content is
// authenticated against its covered MAC, and under MAC bucketing the data
// chains are cross-checked against the sidecars. Used after snapshot
// restore and as a defense-in-depth scrub.
//
//ss:attacker — walks wholly host-controlled chains.
func (s *Store) VerifyAll(m *sim.Meter) (err error) {
	defer func() { s.noteErr(m, err) }()
	for idx := 0; idx < s.opts.MACHashes; idx++ {
		v, err := s.collectSet(m, idx)
		if err != nil {
			return err
		}
		if err := s.verifySet(m, &v); err != nil {
			return fmt.Errorf("%w (MAC hash slot %d)", err, idx)
		}
		for _, b := range v.buckets {
			if err := s.verifyBucketEntries(m, &v, b); err != nil {
				return fmt.Errorf("%w (bucket %d)", err, b)
			}
		}
	}
	return nil
}

// verifyBucketEntries authenticates every entry in bucket b against the
// collected (already set-hash-verified) MAC material.
//
//ss:nopanic-ok(pos is range-checked against the sidecar count before slicing)
func (s *Store) verifyBucketEntries(m *sim.Meter, v *setView, b int) error {
	off, cnt, ok := v.bucketOffset(b)
	if !ok {
		return ErrIntegrity
	}
	cur, err := s.readPtr(m, s.headAddr(b))
	if err != nil {
		return err
	}
	i := 0
	var hdrBuf [entry.HeaderSize]byte
	for cur != 0 {
		s.space.Read(m, cur, hdrBuf[:])
		hdr := entry.ParseHeader(hdrBuf[:])
		if hdr.CTLen() > 64<<20 {
			return ErrIntegrity
		}
		pos := i
		if s.opts.MACBucket {
			pos = int(hdr.Slot)
		}
		if pos < 0 || pos >= cnt || i >= cnt {
			return ErrIntegrity
		}
		if err := s.checkSpan(cur+entry.HeaderSize, hdr.CTLen()); err != nil {
			return err
		}
		authoritative := v.macs[off+pos*entry.MACSize : off+(pos+1)*entry.MACSize]
		ctp := getScratch(hdr.CTLen())
		ct := *ctp
		s.space.Read(m, cur+entry.HeaderSize, ct)
		ok := s.cipher.VerifyEntryMAC(m, &hdr, ct, authoritative)
		putScratch(ctp)
		if !ok {
			return ErrIntegrity
		}
		if s.opts.MACBucket && subtle.ConstantTimeCompare(hdr.MAC[:], authoritative) != 1 {
			return ErrIntegrity // stale entry MAC field vs sidecar
		}
		if err := mem.CheckUntrusted(hdr.Next); err != nil {
			return ErrCorruptPointer
		}
		if hdr.Next != 0 && !s.space.InAllocated(hdr.Next, entry.HeaderSize) {
			return ErrCorruptPointer
		}
		cur = hdr.Next
		i++
	}
	if i != cnt {
		return ErrIntegrity
	}
	return nil
}

// ForEachBucketRaw streams each non-empty bucket's raw encrypted entries
// (head-first) to f without charging access cost; the snapshot writer
// models its own streaming cost (§4.4: entries are written to storage
// as-is, already encrypted).
func (s *Store) ForEachBucketRaw(f func(bucket int, entries [][]byte) error) error {
	for b := 0; b < s.opts.Buckets; b++ {
		var head [8]byte
		s.space.Peek(s.headAddr(b), head[:])
		cur := mem.Addr(leU64(head[:]))
		var list [][]byte
		for cur != 0 {
			// Same pointer/size sanitization as the hot path: a snapshot
			// of tampered memory must fail typed, not fault or OOM.
			if err := mem.CheckUntrusted(cur); err != nil {
				return ErrCorruptPointer
			}
			if !s.space.InAllocated(cur, entry.HeaderSize) {
				return ErrCorruptPointer
			}
			var hdrBuf [entry.HeaderSize]byte
			s.space.Peek(cur, hdrBuf[:])
			hdr := entry.ParseHeader(hdrBuf[:])
			if hdr.CTLen() > 64<<20 || len(list) >= s.keys+1 {
				return ErrIntegrity
			}
			if err := s.checkSpan(cur, hdr.TotalLen()); err != nil {
				return err
			}
			raw := make([]byte, hdr.TotalLen())
			s.space.Peek(cur, raw)
			list = append(list, raw)
			cur = hdr.Next
		}
		if len(list) == 0 {
			continue
		}
		if err := f(b, list); err != nil {
			return err
		}
	}
	return nil
}

// ForEachDecrypt iterates every live key/value pair in plaintext (enclave
// internal; used to merge the temporary snapshot table back, Alg. 1).
// Spilled values are faulted back from the value log, so callers always
// observe logical values regardless of tier.
func (s *Store) ForEachDecrypt(m *sim.Meter, f func(key, val []byte) error) error {
	return s.ForEachBucketRaw(func(b int, entries [][]byte) error {
		for _, raw := range entries {
			hdr := entry.ParseHeader(raw)
			ct := raw[entry.HeaderSize:]
			pt := make([]byte, len(ct))
			s.cipher.DecryptKV(m, &hdr.IV, ct, pt)
			key, val := pt[:hdr.KeySize], pt[hdr.KeySize:]
			if hdr.Flags&entry.FlagSpilled != 0 {
				_, fv, err := s.faultSpilled(m, key, val)
				if err != nil {
					return err
				}
				val = fv
			}
			if err := f(key, val); err != nil {
				return err
			}
		}
		return nil
	})
}

// RestoreBucket rebuilds bucket b from raw entries (head-first order, as
// produced by ForEachBucketRaw), reconstructing the chain and the MAC
// sidecar. The caller must afterwards install the sealed MAC hashes and
// run VerifyAll to authenticate the restored state.
//
//ss:seals — snapshot bytes are already encrypted and MACed.
func (s *Store) RestoreBucket(m *sim.Meter, b int, entries [][]byte) error {
	// Insert in reverse so head-first order is reproduced exactly.
	for i := len(entries) - 1; i >= 0; i-- {
		raw := entries[i]
		if len(raw) < entry.HeaderSize {
			return ErrIntegrity
		}
		hdr := entry.ParseHeader(raw)
		if hdr.TotalLen() != len(raw) {
			return ErrIntegrity
		}
		oldHead, err := s.readPtr(m, s.headAddr(b))
		if err != nil {
			return err
		}
		addr := s.heap.Alloc(m, len(raw))
		// Rewrite the next pointer to the rebuilt chain.
		hdr.Next = oldHead
		buf := append([]byte(nil), raw...)
		hdr.Marshal(buf[:entry.HeaderSize])
		s.space.Write(m, addr, buf)
		s.space.WriteU64(m, s.headAddr(b), uint64(addr))
		if s.opts.MACBucket {
			if err := s.appendSidecarAt(m, b, int(hdr.Slot), hdr.MAC[:]); err != nil {
				return err
			}
		}
		if s.ordered != nil {
			// Rebuild the ordered index from the decrypted key.
			ct := raw[entry.HeaderSize:]
			pt := make([]byte, len(ct))
			s.cipher.DecryptKV(m, &hdr.IV, ct, pt)
			s.ordered.insert(m, pt[:hdr.KeySize])
		}
		if hdr.Flags&entry.FlagSpilled == 0 {
			s.inlineValBytes += int64(hdr.ValSize)
		}
		s.keys++
	}
	if s.opts.MACBucket && len(entries) > 0 {
		s.setSidecarCount(m, b, len(entries))
	}
	return nil
}

// appendSidecarAt writes a MAC at an explicit slot, growing nodes without
// touching the head count (RestoreBucket fixes the count at the end).
//
//ss:seals — rebuilds MAC sidecar nodes from snapshot tags.
func (s *Store) appendSidecarAt(m *sim.Meter, b, idx int, mac []byte) error {
	head, err := s.readPtr(m, s.macHeadAddr(b))
	if err != nil {
		return err
	}
	if head == 0 {
		head = s.newSidecarNode(m)
		s.space.WriteU64(m, s.macHeadAddr(b), uint64(head))
	}
	node := head
	for skip := idx / s.opts.MACBucketCap; skip > 0; skip-- {
		next, err := s.readPtr(m, node)
		if err != nil {
			return err
		}
		if next == 0 {
			next = s.newSidecarNode(m)
			s.space.WriteU64(m, node, uint64(next))
		}
		node = next
	}
	slot := node + mem.Addr(macNodeHdr+(idx%s.opts.MACBucketCap)*entry.MACSize)
	if err := s.checkSpan(slot, len(mac)); err != nil {
		return err
	}
	s.space.Write(m, slot, mac)
	return nil
}

// ExportMACHashes copies the in-enclave integrity roots for sealing: the
// MAC hash array, or the 16-byte Merkle root in MerkleTree mode.
func (s *Store) ExportMACHashes() []byte {
	if s.tree != nil {
		d := s.tree.RootPeek()
		return d[:]
	}
	out := make([]byte, s.opts.MACHashes*entry.MACSize)
	s.space.Peek(s.macHash, out)
	return out
}

// ImportMACHashes installs sealed integrity roots after restore. In
// MerkleTree mode the tree is rebuilt from the restored buckets and its
// recomputed root must equal the sealed one.
//
//ss:enclave-write — the MAC hash array is enclave-resident.
func (s *Store) ImportMACHashes(m *sim.Meter, data []byte) error {
	if s.tree != nil {
		if len(data) != entry.MACSize {
			return fmt.Errorf("shieldstore: sealed Merkle root size mismatch: %d", len(data))
		}
		for b := 0; b < s.opts.Buckets; b++ {
			v, err := s.collectSet(m, b)
			if err != nil {
				return err
			}
			if len(v.macs) == 0 {
				continue
			}
			s.writeSetHash(m, &v)
		}
		got := s.tree.RootPeek()
		if string(got[:]) != string(data) {
			return fmt.Errorf("%w: rebuilt Merkle root does not match sealed root", ErrIntegrity)
		}
		return nil
	}
	if len(data) != s.opts.MACHashes*entry.MACSize {
		return fmt.Errorf("shieldstore: MAC hash array size mismatch: %d != %d",
			len(data), s.opts.MACHashes*entry.MACSize)
	}
	s.space.Write(m, s.macHash, data)
	return nil
}

// --- small helpers ---

//ss:nopanic-ok(callers pass offsets validated by positionOf)
func spliceOut(b []byte, off int) []byte {
	return append(b[:off], b[off+entry.MACSize:]...)
}

//ss:nopanic-ok(callers pass offsets validated by positionOf)
func spliceIn(b []byte, off int, mac []byte) []byte {
	b = append(b, mac...) // grow
	copy(b[off+entry.MACSize:], b[off:])
	copy(b[off:], mac)
	return b
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLeU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func leU64(b []byte) uint64 {
	return uint64(leU32(b)) | uint64(leU32(b[4:]))<<32
}
