// Package merkle implements the integrity design ShieldStore's §4.3
// *rejects*: a full binary Merkle tree over per-bucket MACs with only the
// root inside the enclave.
//
// The paper argues that for millions of buckets the tree becomes
// excessively tall — every verification walks log2(n) levels of keyed
// hashing and every update rewrites a root path — and chooses flattened
// in-enclave MAC hashes instead. This package exists so that choice can
// be validated: core.Options.MerkleTree switches the store's integrity
// backend to this tree, and BenchmarkAblationIntegrity compares the two.
//
// Layout: a perfect binary tree over nextPow2(leaves) leaves, stored as a
// flat array of 16-byte nodes in *untrusted* memory (1-indexed heap
// order: node i has children 2i and 2i+1). Only the 16-byte root lives
// in enclave memory. Unwritten nodes read as the all-zero value and are
// interpreted as that level's "empty" default, whose digests are
// precomputed at construction — so an empty tree needs no initialization
// writes, and a host writing zeros into a node merely resets it to a
// default that cannot match real content.
package merkle

import (
	"crypto/subtle"
	"errors"

	"shieldstore/internal/cmac"
	"shieldstore/internal/mem"
	"shieldstore/internal/sim"
)

// ErrIntegrity reports a path that does not authenticate against the
// in-enclave root.
var ErrIntegrity = errors.New("merkle: path verification failed")

// Digest is one tree node value.
type Digest = [16]byte

// Tree is a Merkle tree over fixed-position 16-byte leaves.
type Tree struct {
	space  *mem.Space
	model  *sim.CostModel
	mac    *cmac.CMAC
	leaves int // configured leaf count
	cap    int // power-of-two leaf capacity
	levels int // tree height (cap leaves -> levels = log2(cap)+1)

	nodes mem.Addr // untrusted: 2*cap nodes x 16 B, heap order, [1..2cap)
	root  mem.Addr // enclave: 16 B

	// defaults[l] is the digest of an all-empty subtree whose leaves sit
	// l levels below (defaults[0] = empty leaf = zero).
	defaults []Digest
}

// New builds a tree with the given leaf count. The CMAC key must be
// enclave-held (the caller owns key management).
//
//ss:enclave-write — installs the empty root in enclave memory.
//ss:nopanic-ok(leaf count is the validated bucket count; level loops are bounded by the tree height)
func New(space *mem.Space, mac *cmac.CMAC, leaves int) *Tree {
	if leaves <= 0 {
		panic("merkle: leaves must be positive")
	}
	capLeaves := 1
	levels := 1
	for capLeaves < leaves {
		capLeaves *= 2
		levels++
	}
	t := &Tree{
		space:  space,
		model:  space.Model(),
		mac:    mac,
		leaves: leaves,
		cap:    capLeaves,
		levels: levels,
		nodes:  space.Alloc(mem.Untrusted, 2*capLeaves*16),
		root:   space.Alloc(mem.Enclave, 16),
	}
	// Empty-subtree digests, bottom up. The zero digest doubles as the
	// "unwritten node" sentinel.
	t.defaults = make([]Digest, levels)
	for l := 1; l < levels; l++ {
		t.defaults[l] = t.combine(nil, t.defaults[l-1], t.defaults[l-1])
	}
	// Install the empty root in enclave memory.
	rootDefault := t.defaults[levels-1]
	setup := sim.NewMeter(t.model)
	t.space.Write(setup, t.root, rootDefault[:])
	return t
}

// Levels returns the tree height (the §4.3 complaint).
func (t *Tree) Levels() int { return t.levels }

// combine hashes two children with a domain-separation prefix.
func (t *Tree) combine(m *sim.Meter, l, r Digest) Digest {
	var buf [33]byte
	buf[0] = 0x4E // 'N'ode: distinguishes from leaf content MACs
	copy(buf[1:17], l[:])
	copy(buf[17:33], r[:])
	if m != nil {
		m.Charge(t.model.CMAC(len(buf)))
		m.Count(sim.CtrCMAC)
	}
	return t.mac.Tag(buf[:])
}

// nodeAddr returns the untrusted address of heap node i.
func (t *Tree) nodeAddr(i int) mem.Addr { return t.nodes + mem.Addr(i*16) }

// readNode loads a node, substituting the level default for unwritten
// (all-zero) slots. depth counts levels below this node's children... the
// level parameter is the height of the subtree under the node.
func (t *Tree) readNode(m *sim.Meter, i, level int) Digest {
	var d Digest
	t.space.Read(m, t.nodeAddr(i), d[:])
	if d == (Digest{}) {
		return t.defaults[level]
	}
	return d
}

// VerifyLeaf authenticates leaf i's digest against the enclave root by
// recomputing the root from the sibling path.
func (t *Tree) VerifyLeaf(m *sim.Meter, i int, leaf Digest) error {
	if i < 0 || i >= t.leaves {
		return ErrIntegrity
	}
	cur := leaf
	idx := t.cap + i
	for level := 0; idx > 1; level++ {
		sib := t.readNode(m, idx^1, level)
		if idx&1 == 0 {
			cur = t.combine(m, cur, sib)
		} else {
			cur = t.combine(m, sib, cur)
		}
		idx >>= 1
	}
	var want Digest
	t.space.Read(m, t.root, want[:])
	if subtle.ConstantTimeCompare(cur[:], want[:]) != 1 {
		return ErrIntegrity
	}
	return nil
}

// UpdateLeaf installs a new digest for leaf i, rewriting its root path in
// untrusted memory and the root in the enclave.
//
//ss:seals — tree nodes are keyed digests; only the root write targets enclave memory.
//ss:nopanic-ok(leaf index is the enclave-computed MAC-hash index, never untrusted bytes)
func (t *Tree) UpdateLeaf(m *sim.Meter, i int, leaf Digest) {
	if i < 0 || i >= t.leaves {
		panic("merkle: leaf out of range")
	}
	idx := t.cap + i
	cur := leaf
	t.space.Write(m, t.nodeAddr(idx), cur[:])
	for level := 0; idx > 1; level++ {
		sib := t.readNode(m, idx^1, level)
		if idx&1 == 0 {
			cur = t.combine(m, cur, sib)
		} else {
			cur = t.combine(m, sib, cur)
		}
		idx >>= 1
		t.space.Write(m, t.nodeAddr(idx), cur[:])
	}
	t.space.Write(m, t.root, cur[:])
}

// LeafDigest reads leaf i's stored digest (tests).
func (t *Tree) LeafDigest(m *sim.Meter, i int) Digest {
	return t.readNode(m, t.cap+i, 0)
}

// TamperNode overwrites an internal node or leaf in untrusted memory
// (tests: host attack).
//
//ss:seals — test-only host attack on untrusted nodes.
func (t *Tree) TamperNode(i int, d Digest) {
	t.space.Tamper(t.nodeAddr(i), d[:])
}

// Cap returns the power-of-two capacity (tests).
func (t *Tree) Cap() int { return t.cap }

// RootPeek returns the enclave root without cost accounting (sealing).
func (t *Tree) RootPeek() Digest {
	var d Digest
	t.space.Peek(t.root, d[:])
	return d
}
