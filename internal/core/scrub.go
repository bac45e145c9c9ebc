// Background integrity scrubber (DESIGN.md §12): the incremental,
// resumable form of VerifyAll. A partition worker verifies a few bucket
// sets per idle wakeup — the same §4.3 audit the full scrub performs
// (set MAC list against the in-enclave hash, every entry against its
// covered MAC) — so host tampering is detected proactively, between
// requests, instead of on the first client op unlucky enough to touch
// the damaged set. Detections flow through the exact quarantine plumbing
// client-triggered ones do (noteErr → latch → hook).
package core

import (
	"fmt"

	"shieldstore/internal/mem"
	"shieldstore/internal/secret"
	"shieldstore/internal/sgx"
	"shieldstore/internal/sim"
)

// ScrubSlice verifies up to maxSets bucket sets starting at the store's
// scrub cursor, advancing (and wrapping) the cursor as it goes. It
// returns wrapped=true when a full pass over every set completed during
// this slice. Verification work is charged to m and counted per set as
// CtrScrub. On a detected violation the error is recorded via the same
// path as an operational failure (tripping the quarantine latch when
// armed) and the slice stops. A quarantined store is never scrubbed —
// the damage is already isolated.
//
//ss:attacker — walks wholly host-controlled chains, like VerifyAll.
func (s *Store) ScrubSlice(m *sim.Meter, maxSets int) (wrapped bool, err error) {
	if gerr := s.guard(); gerr != nil {
		return false, gerr
	}
	defer func() { s.noteErr(m, err) }()
	total := s.opts.MACHashes // == Buckets in Merkle mode (see New)
	pos := int(s.scrubPos.Load())
	if pos >= total {
		pos = 0
	}
	for i := 0; i < maxSets; i++ {
		idx := pos
		m.Count(sim.CtrScrub)
		serr := s.scrubSet(m, idx)
		// Advance even past a failing set: a store without the quarantine
		// latch armed must keep making progress rather than re-detect the
		// same corrupt set on every slice.
		pos++
		if pos >= total {
			pos = 0
			wrapped = true
			s.scrubPasses.Add(1)
		}
		s.scrubPos.Store(int64(pos))
		if serr != nil {
			err = serr
			return wrapped, err
		}
	}
	return wrapped, nil
}

// scrubSet audits one bucket set: collect its MAC material, verify the
// set hash, then authenticate every entry of every bucket in the set —
// the per-set body of VerifyAll.
func (s *Store) scrubSet(m *sim.Meter, idx int) error {
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
	if s.vlog != nil {
		// Cold-tier audit: chase every spilled entry's pointer and verify
		// the sealed log record in place (DESIGN.md §14).
		for _, b := range v.buckets {
			if err := s.auditSpilled(m, b); err != nil {
				return fmt.Errorf("%w (bucket %d, value log)", err, b)
			}
		}
	}
	return nil
}

// ScrubProgress reports the scrub cursor (next set index), the set count
// of a full pass, and how many full passes have completed. Safe to call
// from any goroutine.
func (s *Store) ScrubProgress() (pos, total int, passes uint64) {
	return int(s.scrubPos.Load()), s.opts.MACHashes, s.scrubPasses.Load()
}

// noteJournalLost flags that an attached operation journal failed a
// write and was detached: the partition keeps serving, but its rebuild
// source is incomplete and auto-heal must refuse to use it.
func (s *Store) noteJournalLost() { s.journalLost.Store(true) }

// JournalLost reports whether the partition's op journal was detached
// after a write failure. Safe to call from any goroutine.
func (s *Store) JournalLost() bool { return s.journalLost.Load() }

// ClearJournalLost resets the flag once a fresh, complete journal covers
// the store again (i.e. right after a successful checkpoint rotated in a
// new log).
func (s *Store) ClearJournalLost() { s.journalLost.Store(false) }

// PartState is a partition's health classification.
type PartState int

// Partition health states.
const (
	// PartHealthy serves traffic normally.
	PartHealthy PartState = iota
	// PartQuarantined detected tampering and refuses traffic until
	// verified or rebuilt (terminal without an operator or a healer).
	PartQuarantined
	// PartRebuilding is quarantined with a rebuild in flight: requests
	// fail with the retryable ErrRebuilding.
	PartRebuilding
	// PartUnhealable is quarantined with rebuild refused: the op journal
	// was detached after a write failure, so replaying it would silently
	// drop acknowledged mutations. Requests fail with ErrUnhealable; only
	// an operator restore or a replica failover resolves it.
	PartUnhealable
)

// String returns the state's wire/monitoring name.
func (st PartState) String() string {
	switch st {
	case PartQuarantined:
		return "quarantined"
	case PartRebuilding:
		return "rebuilding"
	case PartUnhealable:
		return "unhealable"
	default:
		return "healthy"
	}
}

// PartHealth is one partition's health snapshot.
type PartHealth struct {
	State       PartState
	ScrubPos    int    // next bucket-set index the scrubber will verify
	ScrubTotal  int    // sets per full pass
	ScrubPasses uint64 // completed full passes
	JournalLost bool   // op journal detached after a write failure
}

// Health snapshots this store's health. Safe to call from any goroutine
// (all inputs are atomics).
func (s *Store) Health() PartHealth {
	h := PartHealth{JournalLost: s.journalLost.Load()}
	h.ScrubPos, h.ScrubTotal, h.ScrubPasses = s.ScrubProgress()
	switch {
	case s.quarantined.Load() && s.rebuilding.Load():
		h.State = PartRebuilding
	case s.quarantined.Load() && h.JournalLost:
		h.State = PartUnhealable
	case s.quarantined.Load():
		h.State = PartQuarantined
	default:
		h.State = PartHealthy
	}
	return h
}

// FormatHealth renders per-partition health as "partN=state ..." lines —
// the payload of the server's CmdHealth response.
func FormatHealth(hs []PartHealth) []string {
	out := make([]string, len(hs))
	for i, h := range hs {
		line := fmt.Sprintf("part%d=%s scrub=%d/%d passes=%d",
			i, h.State, h.ScrubPos, h.ScrubTotal, h.ScrubPasses)
		if h.JournalLost {
			line += " journal=lost"
		}
		out[i] = line
	}
	return out
}

// FormatStats renders a node's counters as "name=value" lines — the
// payload of the server's CmdStats response and the only place a
// sim.Stats becomes text. keys is the live key count and st one snapshot
// aggregated across partitions (events summed, Cycles the busiest
// partition's clock). Every sim counter appears once under its canonical
// name; the secret_* gauges are the process-wide guarded-buffer census,
// not a per-partition sum. The lines after the counters are the
// benchmark's compatibility keys whose figures the canonical names spell
// differently.
func FormatStats(enclave *sgx.Enclave, keys int, st sim.Stats) []string {
	out := make([]string, 0, len(st.Events)+8)
	out = append(out,
		fmt.Sprintf("keys=%d", keys),
		fmt.Sprintf("virtual_seconds=%.6f", enclave.Model().Seconds(st.Cycles)),
		fmt.Sprintf("cycles=%d", st.Cycles),
	)
	buffers, bytes := secret.Live()
	for i, v := range st.Events {
		switch sim.Counter(i) {
		case sim.CtrSecretBuffersLive:
			v = uint64(buffers)
		case sim.CtrSecretBytesLive:
			v = uint64(bytes)
		}
		out = append(out, fmt.Sprintf("%s=%d", sim.Counter(i), v))
	}
	space := enclave.Space()
	return append(out,
		fmt.Sprintf("decryptions=%d", st.Events[sim.CtrDecrypt]),
		fmt.Sprintf("epc_faults=%d", st.Events[sim.CtrEPCFaultRead]+st.Events[sim.CtrEPCFaultWrite]),
		fmt.Sprintf("ocalls=%d", st.Events[sim.CtrOCall]),
		fmt.Sprintf("untrusted_bytes=%d", space.UsedBytes(mem.Untrusted)),
		fmt.Sprintf("enclave_bytes=%d", space.UsedBytes(mem.Enclave)),
	)
}
