// Fault-plane threading and per-partition quarantine.
//
// Injection happens where the §4.3 protocol starts — just before a
// bucket set's MAC material is collected — so every armed corruption is
// in place for the very verification pass that must catch it. Reactions
// follow DESIGN.md §10: a detected ErrIntegrity/ErrCorruptPointer
// optionally trips the partition's quarantine latch (Options.Quarantine),
// after which the partition fails its own requests with ErrQuarantined
// while sibling partitions keep serving.
package core

import (
	"errors"
	"fmt"

	"shieldstore/internal/entry"
	"shieldstore/internal/fault"
	"shieldstore/internal/mem"
	"shieldstore/internal/sim"
)

// ErrQuarantined reports an operation rejected because this partition
// previously detected tampering and isolated itself (Options.Quarantine).
var ErrQuarantined = errors.New("shieldstore: partition quarantined after integrity failure")

// ErrRebuilding reports an operation rejected because this partition is
// quarantined but a rebuild from its last snapshot + journal is under
// way: the condition is transient and the request is safe to retry once
// the healed store is swapped back in (DESIGN.md §12).
var ErrRebuilding = errors.New("shieldstore: partition rebuilding after integrity failure")

// ErrUnhealable reports an operation rejected because this partition is
// quarantined AND its rebuild source is incomplete (the op journal was
// detached after a write failure): auto-heal has refused to rebuild, so
// unlike ErrRebuilding the condition does not resolve on its own — an
// operator restore, or a failover to a replica, must intervene
// (DESIGN.md §15).
var ErrUnhealable = errors.New("shieldstore: partition unhealable, op journal incomplete")

// ErrFenced reports a mutation rejected (or an acknowledged apply
// retracted) because this node has been fenced out by a newer replication
// epoch — a replica was promoted in its place and this node's writes no
// longer count (DESIGN.md §15). Clients must re-route to the current
// primary.
var ErrFenced = errors.New("shieldstore: node fenced by newer replication epoch")

// SetFaultPlane attaches a fault-injection plane (nil detaches). Test
// and experiment use only; the plane's points fire inside this store's
// operation paths.
func (s *Store) SetFaultPlane(p *fault.Plane) { s.faults = p }

// Quarantined reports whether the partition has isolated itself. Safe to
// call from any goroutine (health checks read it while the owning worker
// serves).
func (s *Store) Quarantined() bool { return s.quarantined.Load() }

// Unquarantine clears the latch only after the store re-verifies clean:
// a full VerifyAll audit must pass before traffic is re-admitted. When
// the store is still corrupt the latch stays set and the verification
// failure is returned — blindly re-admitting a tampered partition is the
// misuse this guard exists to stop. A latch that was never set is a
// no-op. Costs accrue to m (a full audit is not free).
func (s *Store) Unquarantine(m *sim.Meter) error {
	if !s.quarantined.Load() {
		return nil
	}
	if err := s.VerifyAll(m); err != nil {
		return fmt.Errorf("shieldstore: unquarantine refused, store still fails verification: %w", err)
	}
	s.rebuilding.Store(false)
	s.quarantined.Store(false)
	return nil
}

// ForceUnquarantine clears the latch without re-verifying anything —
// the raw operator override for state repaired out of band (e.g. after a
// manual restore). Prefer Unquarantine: force-clearing a still-corrupt
// partition re-admits traffic that will fail (and re-trip the latch) on
// the first op that touches the damage.
func (s *Store) ForceUnquarantine() {
	s.rebuilding.Store(false)
	s.quarantined.Store(false)
}

// MarkRebuilding flags a quarantined partition as under rebuild:
// guard() rejections switch from the terminal ErrQuarantined to the
// retryable ErrRebuilding while an orchestrator restores a fresh copy.
func (s *Store) MarkRebuilding() { s.rebuilding.Store(true) }

// ClearRebuilding drops the rebuild flag (a failed rebuild falls back to
// plain quarantine). The latch itself is untouched.
func (s *Store) ClearRebuilding() { s.rebuilding.Store(false) }

// EnableQuarantine arms the isolation latch on a live store. Restored
// snapshots need this: the sealed metadata does not carry the Quarantine
// option (it is a deployment policy, not enclave state), so a rebuilt
// partition re-arms it before being swapped back into service.
func (s *Store) EnableQuarantine() { s.opts.Quarantine = true }

// SetQuarantineHook registers f to run once, on the goroutine that trips
// the latch, at the moment of the quarantine transition (nil clears).
// The partition dispatcher uses it to flag the rebuild state and wake
// the healer before the failing operation even returns. Must be set
// before the store serves traffic (same ownership rule as SetFaultPlane).
func (s *Store) SetQuarantineHook(f func()) { s.quarantineHook = f }

// guard rejects operations on a quarantined partition. Mid-rebuild the
// rejection is the retryable ErrRebuilding; with the op journal lost the
// rejection is ErrUnhealable (the healer refused a rebuild that would
// drop acknowledged writes, so nobody is coming); otherwise the terminal
// ErrQuarantined.
func (s *Store) guard() error {
	if s.quarantined.Load() {
		if s.rebuilding.Load() {
			return ErrRebuilding
		}
		if s.journalLost.Load() {
			return ErrUnhealable
		}
		return ErrQuarantined
	}
	return nil
}

// noteErr records an operation's outcome: integrity-class failures bump
// CtrIntegrityFail and, when Options.Quarantine is set, trip the latch
// (CtrQuarantine counts the transition, not repeat detections).
func (s *Store) noteErr(m *sim.Meter, err error) {
	if err == nil {
		return
	}
	if errors.Is(err, ErrIntegrity) || errors.Is(err, ErrCorruptPointer) {
		m.Count(sim.CtrIntegrityFail)
		if s.opts.Quarantine && s.quarantined.CompareAndSwap(false, true) {
			m.Count(sim.CtrQuarantine)
			if s.quarantineHook != nil {
				s.quarantineHook()
			}
		}
	}
}

// injectFaults fires any armed untrusted-memory corruptions against
// bucket b. Called at the top of set collection: the damage is in place
// before the MAC material is gathered, exactly as a host attacking
// between requests would leave it. Corruption uses Peek/Tamper (host
// actions cost the enclave nothing and never touch its meters).
//
//ss:seals — emulates host corruption via Tamper; writes no enclave secrets.
func (s *Store) injectFaults(m *sim.Meter, b int) {
	p := s.faults
	if p == nil {
		return
	}
	if p.Hit(fault.PointChainSplice) {
		var zero [8]byte
		s.space.Tamper(s.headAddr(b), zero[:])
		m.Count(sim.CtrFaultInjected)
	}
	if p.Hit(fault.PointEntryFlip) {
		s.injectEntryFlip(p, b)
		m.Count(sim.CtrFaultInjected)
	}
	if p.Hit(fault.PointMACSidecar) {
		s.injectSidecarCorrupt(p, b)
		m.Count(sim.CtrFaultInjected)
	}
	if p.Hit(fault.PointMerkleLeaf) {
		s.injectMerkleTamper(p, b)
		m.Count(sim.CtrFaultInjected)
	}
}

// flipByte XORs one deterministic bit into the byte at a.
//
//ss:seals — flips attacker-visible bytes only.
func (s *Store) flipByte(p *fault.Plane, a mem.Addr) {
	var bb [1]byte
	s.space.Peek(a, bb[:])
	bb[0] ^= 1 << p.Pick(8)
	s.space.Tamper(a, bb[:])
}

// injectEntryFlip flips one ciphertext bit of bucket b's head entry. An
// empty bucket absorbs the fault harmlessly (the arm still counts as
// fired — the host "attacked" nothing).
func (s *Store) injectEntryFlip(p *fault.Plane, b int) {
	var head [8]byte
	s.space.Peek(s.headAddr(b), head[:])
	cur := mem.Addr(leU64(head[:]))
	if cur == 0 {
		return
	}
	var hdrBuf [entry.HeaderSize]byte
	s.space.Peek(cur, hdrBuf[:])
	hdr := entry.ParseHeader(hdrBuf[:])
	if hdr.CTLen() <= 0 || hdr.CTLen() > 64<<20 {
		return
	}
	s.flipByte(p, cur+entry.HeaderSize+mem.Addr(p.Pick(hdr.CTLen())))
}

// injectSidecarCorrupt flips one byte of bucket b's MAC-bucket sidecar
// (no-op without MAC bucketing or for an empty sidecar).
func (s *Store) injectSidecarCorrupt(p *fault.Plane, b int) {
	if !s.opts.MACBucket {
		return
	}
	var head [8]byte
	s.space.Peek(s.macHeadAddr(b), head[:])
	node := mem.Addr(leU64(head[:]))
	if node == 0 {
		return
	}
	var cntBuf [4]byte
	s.space.Peek(node+8, cntBuf[:])
	cnt := int(leU32(cntBuf[:]))
	if cnt <= 0 {
		return
	}
	if cnt > s.opts.MACBucketCap {
		cnt = s.opts.MACBucketCap
	}
	s.flipByte(p, node+macNodeHdr+mem.Addr(p.Pick(cnt*entry.MACSize)))
}

// injectMerkleTamper corrupts the untrusted Merkle node on bucket b's
// verification path (the leaf's sibling — VerifyLeaf reads siblings, not
// the leaf's own stored digest), so the very next op on b fails the root
// check. No-op outside MerkleTree mode.
func (s *Store) injectMerkleTamper(p *fault.Plane, b int) {
	if s.tree == nil {
		return
	}
	var d [16]byte
	for i := range d {
		d[i] = byte(1 + p.Pick(255))
	}
	s.tree.TamperNode((s.tree.Cap()+b)^1, d)
}

// QuarantinedParts lists the indices of partitions that have isolated
// themselves. Safe for concurrent use.
//
//ss:xpart — control-plane health probe over all partitions.
func (p *Partitioned) QuarantinedParts() []int {
	p.partsMu.RLock()
	defer p.partsMu.RUnlock()
	var out []int
	for i, s := range p.parts {
		if s.Quarantined() {
			out = append(out, i)
		}
	}
	return out
}

// SetFaultPlane attaches one plane to every partition.
//
//ss:xpart — control-plane configuration before workers start.
func (p *Partitioned) SetFaultPlane(pl *fault.Plane) {
	p.partsMu.RLock()
	defer p.partsMu.RUnlock()
	for _, s := range p.parts {
		s.SetFaultPlane(pl)
	}
}
