// Package mem implements the simulated physical memory of the ShieldStore
// SGX testbed: a flat address space split into an enclave region and an
// unprotected region.
//
// All data structures of every simulated key-value store live inside this
// address space and are manipulated exclusively through Read/Write calls
// that charge virtual cycles to a sim.Meter, exactly like a storage engine
// working over mmap. The enclave region carries an EPC residency model:
// once the enclave's working set exceeds the effective EPC capacity, page
// touches trigger demand paging whose cost (asynchronous exit, page
// re-encryption, kernel work) is charged through a machine-wide serialized
// paging clock — reproducing both the latency cliffs of Figure 2 and the
// multicore scalability collapse of Figure 13.
//
// The unprotected region is ordinary DRAM: accesses from enclave code cost
// the same as NoSGX accesses (Figure 2, SGX_Unprotected), which is the
// observation ShieldStore's design is built on.
//
// Writes into this space are host-visible unless the target is the enclave
// region, so the write entry points carry //ss:sink: shieldvet requires
// every caller outside this package to be audited as //ss:seals (bytes are
// sealed/MACed/non-secret) or //ss:enclave-write (target is EPC-backed).
//
//ss:untrusted
package mem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"shieldstore/internal/sim"
)

// Region identifies one of the two simulated memory regions.
type Region uint8

const (
	// Enclave is EPC-backed protected memory. Only enclave code may touch
	// it; capacity beyond the EPC limit is demand-paged.
	Enclave Region = iota
	// Untrusted is ordinary unprotected DRAM.
	Untrusted
)

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case Enclave:
		return "enclave"
	case Untrusted:
		return "untrusted"
	default:
		return fmt.Sprintf("region(%d)", uint8(r))
	}
}

// Addr is a simulated virtual address. The zero Addr is the null pointer.
// The enclave region occupies [EnclaveBase, UntrustedBase) and the
// untrusted region starts at UntrustedBase; the enclave virtual address
// range is contiguous, so the §7 untrusted-pointer check is a single range
// comparison, as in the paper.
type Addr uint64

const (
	// EnclaveBase is the first enclave address.
	EnclaveBase Addr = 1 << 40
	// UntrustedBase is the first untrusted address.
	UntrustedBase Addr = 1 << 44
)

const (
	segShift = 20 // 1 MiB backing segments
	segSize  = 1 << segShift
	segMask  = segSize - 1
	maxSegs  = 1 << 16 // 64 GiB per region

	lineShift = 6 // 64 B cachelines
)

// regionStore is an append-only segmented byte arena. Allocation uses an
// atomic bump pointer; segments materialize lazily. Reads and writes to
// disjoint allocations are race-free, mirroring real memory.
type regionStore struct {
	base Addr
	next atomic.Uint64 // bump offset; starts past 0 so Addr 0 is never handed out
	segs [maxSegs]atomic.Pointer[[segSize]byte]
}

func (rs *regionStore) init(base Addr) {
	rs.base = base
	rs.next.Store(64) // keep a guard gap so base+0 is never a valid object
}

//ss:nopanic-ok(simulated OOM: address-space exhaustion is a machine fault, not attacker input)
func (rs *regionStore) alloc(n int) Addr {
	if n <= 0 {
		n = 1
	}
	// Round to 8 bytes for pointer-aligned layouts.
	n = (n + 7) &^ 7
	off := rs.next.Add(uint64(n)) - uint64(n)
	end := off + uint64(n)
	if end > maxSegs*segSize {
		panic(fmt.Sprintf("mem: %s region exhausted (%d bytes)", regionOf(rs.base), end))
	}
	return rs.base + Addr(off)
}

func (rs *regionStore) used() int64 {
	return int64(rs.next.Load())
}

//ss:nopanic-ok(simulated hardware fault: enclave code sanitizes pointers via CheckUntrusted/InAllocated first)
func (rs *regionStore) slice(off uint64, n int) []byte {
	if off >= rs.next.Load() {
		panic(fmt.Sprintf("mem: access beyond allocation high-water mark at offset %#x", off))
	}
	// Segments materialize lazily on first touch, so sparse multi-GB
	// reservations (e.g. Figure 17's 8 GB working sets) cost nothing
	// until used.
	seg := rs.segs[off>>segShift].Load()
	if seg == nil {
		rs.segs[off>>segShift].CompareAndSwap(nil, new([segSize]byte))
		seg = rs.segs[off>>segShift].Load()
	}
	in := off & segMask
	avail := segSize - in
	if uint64(n) < avail {
		avail = uint64(n)
	}
	return seg[in : in+avail]
}

func regionOf(base Addr) Region {
	if base == EnclaveBase {
		return Enclave
	}
	return Untrusted
}

// Config parameterizes a Space.
type Config struct {
	// Model is the cost model; defaults to sim.DefaultCostModel().
	Model *sim.CostModel
	// EPCBytes overrides Model.EPCBytes when nonzero.
	EPCBytes int64
}

// Space is one simulated machine's memory.
type Space struct {
	model *sim.CostModel

	enclave   regionStore
	untrusted regionStore

	epc epcState

	// pagingClock serializes demand paging machine-wide, the way the
	// kernel's EPC management does on real hardware. This is what stops
	// the naive baseline from scaling past two threads (Figure 13).
	pagingClock sim.SharedClock
}

// NewSpace creates a memory space under the given configuration.
func NewSpace(cfg Config) *Space {
	model := cfg.Model
	if model == nil {
		model = sim.DefaultCostModel()
	}
	epcBytes := cfg.EPCBytes
	if epcBytes == 0 {
		epcBytes = model.EPCBytes
	}
	s := &Space{model: model}
	s.enclave.init(EnclaveBase)
	s.untrusted.init(UntrustedBase)
	s.epc.init(int(epcBytes / int64(model.PageSize)))
	return s
}

// Model returns the cost model the space charges against.
func (s *Space) Model() *sim.CostModel { return s.model }

// RegionOf reports which region an address belongs to.
func RegionOf(a Addr) Region {
	if a >= UntrustedBase {
		return Untrusted
	}
	return Enclave
}

// InEnclave reports whether a (non-nil) address points into the enclave's
// contiguous virtual range.
func InEnclave(a Addr) bool {
	return a >= EnclaveBase && a < UntrustedBase
}

// CheckUntrusted implements the §7 pointer sanitization: enclave code must
// verify that a pointer read from untrusted memory does not alias enclave
// memory before dereferencing it, or a malicious host could trick the
// enclave into overwriting its own critical data.
func CheckUntrusted(a Addr) error {
	if a != 0 && InEnclave(a) {
		return fmt.Errorf("mem: untrusted pointer %#x aliases enclave range", uint64(a))
	}
	return nil
}

// InAllocated reports whether [a, a+n) lies entirely inside memory that
// has been handed out by Alloc. Enclave code uses this to sanitize
// untrusted pointers beyond the §7 range check: a pointer into unmapped
// host memory would fault the process — an availability attack the
// enclave can refuse by knowing its own heap bounds.
func (s *Space) InAllocated(a Addr, n int) bool {
	if a == 0 || n < 0 {
		return false
	}
	rs, off := s.storeNoPanic(a)
	if rs == nil {
		return false
	}
	return off+uint64(n) <= rs.next.Load()
}

func (s *Space) storeNoPanic(a Addr) (*regionStore, uint64) {
	switch {
	case a >= UntrustedBase:
		return &s.untrusted, uint64(a - UntrustedBase)
	case a >= EnclaveBase:
		return &s.enclave, uint64(a - EnclaveBase)
	default:
		return nil, 0
	}
}

// Alloc reserves n bytes in the given region and returns the address.
// Allocation itself is free of virtual cost: the simulated allocators
// layered above (the in-enclave heap and the extra untrusted heap) charge
// their own management and OCALL costs.
func (s *Space) Alloc(r Region, n int) Addr {
	if r == Enclave {
		return s.enclave.alloc(n)
	}
	return s.untrusted.alloc(n)
}

// UsedBytes reports the high-water allocation mark of a region.
func (s *Space) UsedBytes(r Region) int64 {
	if r == Enclave {
		return s.enclave.used()
	}
	return s.untrusted.used()
}

// store returns the backing store and offset for an address span.
//
//ss:nopanic-ok(simulated hardware fault: a wild address is a bug in the simulator's caller, not reachable via sanitized pointers)
func (s *Space) store(a Addr) (*regionStore, uint64) {
	if a == 0 {
		panic("mem: nil dereference")
	}
	if a >= UntrustedBase {
		return &s.untrusted, uint64(a - UntrustedBase)
	}
	if a >= EnclaveBase {
		return &s.enclave, uint64(a - EnclaveBase)
	}
	panic(fmt.Sprintf("mem: wild address %#x", uint64(a)))
}

// Read copies len(buf) bytes at address a into buf, charging access costs.
func (s *Space) Read(m *sim.Meter, a Addr, buf []byte) {
	s.access(m, a, len(buf), false)
	s.copyOut(a, buf)
}

// Write copies src into memory at address a, charging access costs.
//
//ss:sink
func (s *Space) Write(m *sim.Meter, a Addr, src []byte) {
	s.access(m, a, len(src), true)
	s.copyIn(a, src)
}

// ReadU64 reads a little-endian uint64 (used for pointers and headers).
func (s *Space) ReadU64(m *sim.Meter, a Addr) uint64 {
	var b [8]byte
	s.Read(m, a, b[:])
	return leU64(b[:])
}

// WriteU64 writes a little-endian uint64.
func (s *Space) WriteU64(m *sim.Meter, a Addr, v uint64) {
	var b [8]byte
	putLeU64(b[:], v)
	s.Write(m, a, b[:])
}

// BulkRead copies a large span with streaming (DMA-like) cost accounting:
// one random access to reach the span plus a per-byte copy charge, instead
// of per-cacheline random-access rates. Enclave pages are still touched
// for EPC residency. Use for whole-page moves and snapshot streaming.
func (s *Space) BulkRead(m *sim.Meter, a Addr, buf []byte) {
	s.bulkAccess(m, a, len(buf), false)
	s.copyOut(a, buf)
}

// BulkWrite is the write-side counterpart of BulkRead.
//
//ss:sink
func (s *Space) BulkWrite(m *sim.Meter, a Addr, src []byte) {
	s.bulkAccess(m, a, len(src), true)
	s.copyIn(a, src)
}

func (s *Space) bulkAccess(m *sim.Meter, a Addr, n int, write bool) {
	if n <= 0 {
		return
	}
	if a == 0 {
		panic("mem: nil dereference")
	}
	if a < EnclaveBase {
		panic(fmt.Sprintf("mem: wild address %#x", uint64(a)))
	}
	c := s.model
	first := c.DRAMAccess
	if RegionOf(a) == Enclave {
		mult := c.EPCReadMult
		if write {
			mult = c.EPCWriteMult
		}
		first = uint64(float64(c.DRAMAccess) * mult)
	}
	m.Charge(first + c.MemCopy(n))
	if RegionOf(a) == Enclave {
		s.touchEnclavePages(m, a, n, write)
	}
}

// Peek reads memory without charging any cost. It exists for tests and for
// the snapshot writer, which streams ciphertext with an explicitly modeled
// bulk-copy cost instead of per-cacheline accounting.
func (s *Space) Peek(a Addr, buf []byte) { s.copyOut(a, buf) }

// Tamper overwrites untrusted memory without any cost accounting,
// simulating a malicious host OS modifying ShieldStore's exposed data
// structures. Tampering with the enclave region is impossible on SGX
// hardware and panics here.
//
//ss:sink
//ss:nopanic-ok(tampering enclave memory is impossible on hardware; the panic enforces the simulation's physics)
func (s *Space) Tamper(a Addr, src []byte) {
	if RegionOf(a) == Enclave {
		panic("mem: SGX hardware forbids host writes to enclave memory")
	}
	s.copyIn(a, src)
}

func (s *Space) copyOut(a Addr, buf []byte) {
	rs, off := s.store(a)
	for len(buf) > 0 {
		chunk := rs.slice(off, len(buf))
		n := copy(buf, chunk)
		buf = buf[n:]
		off += uint64(n)
	}
}

func (s *Space) copyIn(a Addr, src []byte) {
	rs, off := s.store(a)
	for len(src) > 0 {
		chunk := rs.slice(off, len(src))
		n := copy(chunk, src[:len(chunk)])
		src = src[n:]
		off += uint64(n)
	}
}

// access charges the virtual cost of touching [a, a+n) and drives the EPC
// residency machinery for enclave addresses.
//
//ss:nopanic-ok(simulated hardware fault behind the CheckUntrusted/InAllocated sanitizers)
func (s *Space) access(m *sim.Meter, a Addr, n int, write bool) {
	if n <= 0 {
		return
	}
	if a == 0 {
		panic("mem: nil dereference")
	}
	if a < EnclaveBase {
		panic(fmt.Sprintf("mem: wild address %#x", uint64(a)))
	}
	c := s.model
	region := RegionOf(a)

	// Cacheline accounting: the first line of an access pays a full
	// random-access charge; the remainder streams at prefetch cost.
	firstLine := uint64(a) >> lineShift
	lastLine := (uint64(a) + uint64(n) - 1) >> lineShift
	lines := lastLine - firstLine + 1

	var first, stream uint64
	switch region {
	case Untrusted:
		first = c.DRAMAccess
		stream = c.DRAMAccess / 6
	case Enclave:
		mult := c.EPCReadMult
		if write {
			mult = c.EPCWriteMult
		}
		first = uint64(float64(c.DRAMAccess) * mult)
		// The MEE's latency penalty applies to the random access; its
		// *streaming* bandwidth is only ~2x below plain DRAM, so
		// sequential lines are charged close to the untrusted stream
		// rate rather than the full multiplier.
		stream = c.DRAMAccess / 3
	}
	m.Charge(first + (lines-1)*stream)

	if region == Enclave {
		s.touchEnclavePages(m, a, n, write)
	}
}

// touchEnclavePages walks the pages an access spans and resolves faults.
func (s *Space) touchEnclavePages(m *sim.Meter, a Addr, n int, write bool) {
	pageShift := pageShiftFor(s.model.PageSize)
	firstPage := (uint64(a) - uint64(EnclaveBase)) >> pageShift
	lastPage := (uint64(a) + uint64(n) - 1 - uint64(EnclaveBase)) >> pageShift
	for p := firstPage; p <= lastPage; p++ {
		if s.epc.touch(uint32(p)) {
			continue // resident: MEE cost already charged by access()
		}
		// Demand paging: the kernel's EPC management section is serialized
		// machine-wide; the page crypto (EWB/ELDU) runs on the faulting
		// thread.
		cost := s.model.PageFaultRead
		ctr := sim.CtrEPCFaultRead
		if write {
			cost = s.model.PageFaultWrite
			ctr = sim.CtrEPCFaultWrite
		}
		serial := uint64(float64(cost) * s.model.PageFaultSerialFraction)
		s.pagingClock.Acquire(m, serial)
		m.Charge(cost - serial)
		m.Count(ctr)
		s.epc.admit(uint32(p))
	}
}

// ResetPagingClock rewinds the paging serializer to virtual time zero.
// Benchmark harnesses call this between a preload phase (whose meters are
// discarded) and a measurement phase (whose meters restart at zero), so
// the serializer's timeline matches the measurement meters.
func (s *Space) ResetPagingClock() { s.pagingClock.Reset() }

// EPCCapacityPages reports the EPC capacity in pages.
func (s *Space) EPCCapacityPages() int { return s.epc.capacity }

// EPCResidentPages reports how many enclave pages are currently resident.
func (s *Space) EPCResidentPages() int { return int(s.epc.resident.Load()) }

// ResetEPC evicts every page (e.g. between benchmark phases).
func (s *Space) ResetEPC() { s.epc.reset() }

func pageShiftFor(pageSize int) uint {
	switch pageSize {
	case 4096:
		return 12
	case 2048:
		return 11
	case 1024:
		return 10
	default:
		// Fall back to computing the shift; page sizes are powers of two.
		sh := uint(0)
		for 1<<sh < pageSize {
			sh++
		}
		return sh
	}
}

// epcState tracks which enclave pages are EPC-resident using an atomic
// residency bitmap plus an aging CLOCK: each resident page carries a small
// reference counter that touches saturate and the clock hand decays, so
// frequently-reused pages (e.g. a naive store's bucket-head array) survive
// floods of cold pages — the behaviour of the kernel's LRU approximation.
// Hit checks are lock-free; only faults take the kernel mutex, matching
// the asymmetry of real hardware.
type epcState struct {
	capacity int
	resident atomic.Int64

	mu       sync.Mutex
	bits     []atomic.Uint64 // residency bitmap
	refs     []atomic.Uint32 // per-page aging counters (0..refMax)
	hand     uint32
	maxPage  uint32 // highest page index ever touched (clock scan bound)
	bitWords int
}

// refMax is the saturation level of the aging counter: a page must go
// refMax full clock sweeps without a touch before becoming a victim.
const refMax = 3

func (e *epcState) init(capacityPages int) {
	if capacityPages < 4 {
		capacityPages = 4
	}
	e.capacity = capacityPages
	e.bitWords = 1 << 14 // covers 2^20 pages = 4 GiB; grows on demand
	e.bits = make([]atomic.Uint64, e.bitWords)
	e.refs = make([]atomic.Uint32, e.bitWords*64)
}

func (e *epcState) ensure(page uint32) {
	w := int(page >> 6)
	if w < len(e.bits) {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if w < len(e.bits) {
		return
	}
	n := len(e.bits)
	for n <= w {
		n *= 2
	}
	nb := make([]atomic.Uint64, n)
	nr := make([]atomic.Uint32, n*64)
	for i := range e.bits {
		nb[i].Store(e.bits[i].Load())
	}
	for i := range e.refs {
		nr[i].Store(e.refs[i].Load())
	}
	e.bits = nb
	e.refs = nr
}

// touch returns true when the page is resident, refreshing its age.
func (e *epcState) touch(page uint32) bool {
	e.ensure(page)
	w, b := page>>6, uint64(1)<<(page&63)
	if e.bits[w].Load()&b != 0 {
		e.refs[page].Store(refMax)
		return true
	}
	return false
}

// admit makes a page resident, evicting victims if the EPC is full.
func (e *epcState) admit(page uint32) {
	e.ensure(page)
	e.mu.Lock()
	defer e.mu.Unlock()
	w, b := page>>6, uint64(1)<<(page&63)
	if e.bits[w].Load()&b != 0 {
		return // raced with another faulting thread; already resident
	}
	if page > e.maxPage {
		e.maxPage = page
	}
	for e.resident.Load() >= int64(e.capacity) {
		e.evictOne()
	}
	e.bits[w].Or(b)
	e.refs[page].Store(1) // new pages start cool: scan-resistant
	e.resident.Add(1)
}

// evictOne runs the aging CLOCK hand: decay counters until a page at age
// zero is found, then evict it. Called with mu held.
func (e *epcState) evictOne() {
	span := e.maxPage + 1
	for i := uint32(0); i < (refMax+2)*span+64; i++ {
		p := e.hand
		e.hand++
		if e.hand >= span {
			e.hand = 0
		}
		w, b := p>>6, uint64(1)<<(p&63)
		if e.bits[w].Load()&b == 0 {
			continue
		}
		if c := e.refs[p].Load(); c > 0 {
			e.refs[p].Store(c - 1) // age
			continue
		}
		e.bits[w].And(^b)
		e.resident.Add(-1)
		return
	}
	// Pathological: everything pinned at max age; drop the first page.
	for p := uint32(0); p < span; p++ {
		w, b := p>>6, uint64(1)<<(p&63)
		if e.bits[w].Load()&b != 0 {
			e.bits[w].And(^b)
			e.resident.Add(-1)
			return
		}
	}
}

func (e *epcState) reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.bits {
		e.bits[i].Store(0)
	}
	for i := range e.refs {
		e.refs[i].Store(0)
	}
	e.resident.Store(0)
	e.hand = 0
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeU64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
