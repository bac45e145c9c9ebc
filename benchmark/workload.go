//go:build linux

package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
)

// keySize is the length of every key: "user" + 12 decimal digits.
const keySize = 16

// workload is one traffic mix and the server assembly it runs against.
// The names and the why lines are repeated in BENCHMARK.json.
type workload struct {
	name      string
	why       string
	readPct   int  // share of gets, percent; the rest are sets
	zipfian   bool // zipfian 0.99 over the key set, else uniform
	valueSize int
	load      bool // a second connection issues 32-op pipelined bursts
	repl      bool // -role primary shipping to a -role replica
	// spill gives the server a value log, memBudgetMB of inline values
	// (far below the data) and an in-enclave cache of cacheMB.
	spill       bool
	memBudgetMB int64
	cacheMB     int64
}

// The server's own defaults, which the ladder's in-process engines copy.
const (
	partitions = 2 // -partitions: one worker per core of the 2-core host
	buckets    = 1 << 16
)

var workloads = []workload{
	{
		name:      "sync_read",
		why:       "one synchronous op in flight: cost is frame, session crypto, syscalls and hand-offs, not the store",
		readPct:   95,
		zipfian:   true,
		valueSize: 128,
	},
	{
		name:      "pipelined_mixed",
		why:       "32-op bursts amortise the wire, so chain walk, entry crypto, MAC sets, allocator and DB lock dominate",
		readPct:   50,
		valueSize: 512,
		load:      true,
	},
	{
		name:      "repl_write",
		why:       "primary+replica on core.Partitioned: every write ack waits for journal shipping; ends in kill -9 and promote",
		readPct:   50,
		valueSize: 128,
		load:      true,
		repl:      true,
	},
	{
		name:      "spill_read",
		why:       "100 MB of values over a 6 MB memory budget: most reads fault to the encrypted value log on disk",
		readPct:   95,
		valueSize: 1024,
		load:      true,

		spill:       true,
		memBudgetMB: 6,
		cacheMB:     16,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// serverFlags returns the flags the workload's standalone server (or
// both halves of the pair) is started with, besides -listen, -seed and
// the role flags.
func (w *workload) serverFlags(vlogDir string) []string {
	flags := []string{"-partitions", strconv.Itoa(partitions), "-buckets", strconv.Itoa(buckets)}
	if w.spill {
		flags = append(flags, "-vlog-dir", vlogDir,
			"-mem-budget-mb", strconv.FormatInt(w.memBudgetMB, 10),
			"-cache-mb", strconv.FormatInt(w.cacheMB, 10))
	}
	return flags
}

// userBytes is the payload a client stored: keys*(key+value) bytes.
func (w *workload) userBytes(keys int) float64 {
	return float64(keys) * float64(keySize+w.valueSize)
}

// rng is splitmix64: small, seedable and the same on every Go version.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks 0..n-1 with P(rank) ∝ 1/(rank+1)^theta, by the
// closed-form inversion of Gray et al. that YCSB uses.
type zipf struct {
	n, theta, alpha, zetan, eta float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(n int) float64 {
		s := 0.0
		for i := 1; i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) rank(u float64) int {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	r := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= int(z.n) {
		r = int(z.n) - 1
	}
	return r
}

// zipfStride spreads zipfian ranks over the key ids. It is prime and
// shares no factor with an even, power-of-ten key count, so rank -> id
// is a bijection and the hot keys fall in both write classes. Which keys
// are hot does not depend on the seed, as in YCSB: the seed changes the
// order of requests, not how much load each partition gets.
const zipfStride = 48271

// op is one request of a stream.
type op struct {
	id    int
	write bool
}

// stream is one connection's seeded request sequence. A connection only
// writes keys whose id has its own parity (class), so per-key write order
// is program order and the last acknowledged version of every key is
// known to exactly one connection.
type stream struct {
	r     rng
	w     *workload
	z     *zipf
	keys  int
	class int
}

func newStream(w *workload, keys int, seed uint64, class int) *stream {
	s := &stream{r: rng{s: seed*0x9e3779b97f4a7c15 + uint64(class) + 1}, w: w, keys: keys, class: class}
	if w.zipfian {
		s.z = newZipf(keys, 0.99)
	}
	return s
}

func (s *stream) next() op {
	u := s.r.float()
	var id int
	if s.z != nil {
		id = s.z.rank(u) * zipfStride % s.keys
	} else {
		id = int(u * float64(s.keys))
	}
	write := int(s.r.next()%100) >= s.w.readPct
	if write && id%2 != s.class {
		id ^= 1 // keys is even, so the neighbour exists
	}
	return op{id: id, write: write}
}

// keyTable renders every key once: "user%012d".
func keyTable(keys int) [][]byte {
	flat := make([]byte, 0, keys*keySize)
	table := make([][]byte, keys)
	for i := range table {
		flat = fmt.Appendf(flat, "user%012d", i)
		table[i] = flat[i*keySize : (i+1)*keySize : (i+1)*keySize]
	}
	return table
}

// makeValue fills dst[:size] with the self-describing value of (id,
// version): the version in the first eight bytes, then bytes that depend
// on both, so a value served for the wrong key or from an older write is
// detected without the client keeping any value.
func makeValue(dst []byte, id int, version uint64, size int) []byte {
	dst = dst[:size]
	binary.LittleEndian.PutUint64(dst, version)
	r := rng{s: uint64(id)<<32 ^ version*0xd6e8feb86659fd93}
	i := 8
	for ; i+8 <= size; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], r.next())
	}
	if i < size {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], r.next())
		copy(dst[i:], tail[:])
	}
	return dst
}

// valueVersion checks that val is a value makeValue produced for id and
// returns the version it carries. scratch must hold size bytes.
func valueVersion(val []byte, id, size int, scratch []byte) (uint64, bool) {
	if len(val) != size {
		return 0, false
	}
	version := binary.LittleEndian.Uint64(val)
	return version, bytes.Equal(val, makeValue(scratch, id, version, size))
}
