// Tests for the background integrity scrubber and the verify-first
// quarantine exit: cursor bookkeeping, proactive tamper detection
// through the same latch as client ops, and health reporting.
package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"shieldstore/internal/entry"
	"shieldstore/internal/mem"
	"shieldstore/internal/secret"
	"shieldstore/internal/sim"
)

func TestScrubSliceCursor(t *testing.T) {
	opts := Defaults(8) // 8 bucket sets per pass
	s, m, _, _, _ := fillStore(t, opts, 40)

	wrapped, err := s.ScrubSlice(m, 3)
	must(t, err)
	if wrapped {
		t.Fatal("3 of 8 sets should not complete a pass")
	}
	pos, total, passes := s.ScrubProgress()
	if pos != 3 || total != 8 || passes != 0 {
		t.Fatalf("after slice of 3: pos=%d total=%d passes=%d", pos, total, passes)
	}
	if got := m.Events(sim.CtrScrub); got != 3 {
		t.Fatalf("CtrScrub = %d, want 3", got)
	}

	// Finish the pass: the cursor wraps to 0 and the pass counter ticks.
	wrapped, err = s.ScrubSlice(m, 5)
	must(t, err)
	if !wrapped {
		t.Fatal("completing set 8/8 should report a wrapped pass")
	}
	pos, _, passes = s.ScrubProgress()
	if pos != 0 || passes != 1 {
		t.Fatalf("after full pass: pos=%d passes=%d", pos, passes)
	}

	// A slice larger than a full pass wraps mid-slice and keeps going.
	wrapped, err = s.ScrubSlice(m, 11)
	must(t, err)
	if !wrapped {
		t.Fatal("slice of 11 over 8 sets must wrap")
	}
	pos, _, passes = s.ScrubProgress()
	if pos != 3 || passes != 2 {
		t.Fatalf("after slice of 11: pos=%d passes=%d", pos, passes)
	}
}

func TestScrubDetectsTamperBeforeClientRead(t *testing.T) {
	// The scrubber must find host tampering without any client op
	// touching the damaged chain, and trip the exact same quarantine
	// latch an operational detection does.
	for name, opts := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			opts.Quarantine = true
			s, m, key, _, addr := fillStore(t, opts, 40)
			s.space.Tamper(addr+entry.HeaderSize+1, []byte{0x5A})

			var serr error
			for i := 0; i < 2*s.opts.MACHashes && serr == nil; i++ {
				_, serr = s.ScrubSlice(m, 1)
			}
			if serr == nil {
				t.Fatal("scrubber completed two passes over tampered memory without detecting")
			}
			if !errors.Is(serr, ErrIntegrity) && !errors.Is(serr, ErrCorruptPointer) {
				t.Fatalf("scrub detection is untyped: %v", serr)
			}
			if !s.Quarantined() {
				t.Fatal("scrub detection did not trip the quarantine latch")
			}
			// The client never saw the corruption — its next op sees only
			// the quarantine refusal.
			if _, err := s.Get(m, key); !errors.Is(err, ErrQuarantined) {
				t.Fatalf("Get after scrub detection: %v, want ErrQuarantined", err)
			}
			// And the scrubber itself stands down on a quarantined store.
			if _, err := s.ScrubSlice(m, 1); !errors.Is(err, ErrQuarantined) {
				t.Fatalf("ScrubSlice on quarantined store: %v, want ErrQuarantined", err)
			}
			if st := s.Health().State; st != PartQuarantined {
				t.Fatalf("health state = %v, want quarantined", st)
			}
		})
	}
}

func TestScrubAdvancesPastCorruptSetWithoutLatch(t *testing.T) {
	// Without the Quarantine policy armed, detection must not wedge the
	// cursor on the bad set: the scrubber keeps covering the rest of the
	// table (re-flagging the damage once per pass).
	opts := Defaults(4)
	s, m, _, _, addr := fillStore(t, opts, 40)
	s.space.Tamper(addr+entry.HeaderSize+1, []byte{0x5A})

	detections := 0
	for i := 0; i < 3*s.opts.MACHashes; i++ {
		if _, err := s.ScrubSlice(m, 1); err != nil {
			detections++
		}
	}
	_, _, passes := s.ScrubProgress()
	if passes != 3 {
		t.Fatalf("passes = %d, want 3 (cursor wedged on the corrupt set?)", passes)
	}
	if detections != 3 {
		t.Fatalf("detections = %d, want one per pass", detections)
	}
}

func TestUnquarantineVerifiesFirst(t *testing.T) {
	// Unquarantine is verify-first: while the damage persists it refuses
	// and the latch stays; once the attacker restores the original bytes
	// a full verify passes and service resumes.
	opts := Defaults(8)
	opts.Quarantine = true
	s, m, key, _, addr := fillStore(t, opts, 40)

	tamperAt := addr + entry.HeaderSize + 1
	orig := make([]byte, 1)
	s.space.Peek(tamperAt, orig)
	s.space.Tamper(tamperAt, []byte{orig[0] ^ 0x5A})

	if _, err := s.Get(m, key); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("Get on tampered entry: %v, want ErrIntegrity", err)
	}
	if !s.Quarantined() {
		t.Fatal("detection did not latch")
	}
	if err := s.Unquarantine(m); err == nil {
		t.Fatal("Unquarantine passed while the tampered bytes persist")
	}
	if !s.Quarantined() {
		t.Fatal("failed Unquarantine must leave the latch set")
	}

	s.space.Tamper(tamperAt, orig)
	if err := s.Unquarantine(m); err != nil {
		t.Fatalf("Unquarantine after restore: %v", err)
	}
	if s.Quarantined() {
		t.Fatal("latch still set after verified Unquarantine")
	}
	if v, err := s.Get(m, key); err != nil || string(v) != "rv005" {
		t.Fatalf("Get after recovery: %q, %v", v, err)
	}
	if st := s.Health().State; st != PartHealthy {
		t.Fatalf("health state = %v, want healthy", st)
	}
}

func TestRebuildingStateAndGuard(t *testing.T) {
	opts := Defaults(4)
	opts.Quarantine = true
	s, m, key, _, addr := fillStore(t, opts, 30)
	s.space.Tamper(addr+entry.HeaderSize+1, []byte{0x5A})
	if _, err := s.Get(m, key); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered Get: %v", err)
	}

	s.MarkRebuilding()
	if st := s.Health().State; st != PartRebuilding {
		t.Fatalf("health state = %v, want rebuilding", st)
	}
	if _, err := s.Get(m, key); !errors.Is(err, ErrRebuilding) {
		t.Fatalf("Get during rebuild: %v, want ErrRebuilding", err)
	}

	s.ClearRebuilding()
	if st := s.Health().State; st != PartQuarantined {
		t.Fatalf("health state after ClearRebuilding = %v, want quarantined", st)
	}
	s.ForceUnquarantine()
	if st := s.Health().State; st != PartHealthy {
		t.Fatalf("health state after ForceUnquarantine = %v, want healthy", st)
	}
}

func TestFormatHealth(t *testing.T) {
	lines := FormatHealth([]PartHealth{
		{State: PartHealthy, ScrubPos: 3, ScrubTotal: 64, ScrubPasses: 7},
		{State: PartRebuilding, ScrubPos: 0, ScrubTotal: 64, ScrubPasses: 2, JournalLost: true},
	})
	want := []string{
		"part0=healthy scrub=3/64 passes=7",
		"part1=rebuilding scrub=0/64 passes=2 journal=lost",
	}
	if len(lines) != len(want) {
		t.Fatalf("FormatHealth lines = %v", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

// TestFormatStats checks the CmdStats table: every sim counter exactly
// once under its canonical name, no key twice, the compatibility keys
// equal to the counters they are derived from, and the secret_* gauges
// taken from the process-wide census rather than the snapshot.
func TestFormatStats(t *testing.T) {
	s, m := newTestStore(Defaults(64))
	for i := 0; i < 20; i++ {
		must(t, s.Set(m, []byte(fmt.Sprintf("k%02d", i)), []byte("v")))
		if _, err := s.Get(m, []byte(fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var distinct sim.Stats
	distinct.Cycles = 1 << 33
	for i := range distinct.Events {
		distinct.Events[i] = uint64(100 + i)
	}
	startBuffers, startBytes := secret.Live()
	a, b := secret.New(16), secret.New(32)
	defer a.Wipe()
	defer b.Wipe()

	space := s.enclave.Space()
	for _, tc := range []struct {
		name string
		st   sim.Stats
	}{
		{"zero", sim.Stats{}},
		{"store", m.Snapshot()},
		{"distinct", distinct},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lines := FormatStats(s.enclave, s.Keys(), tc.st)
			kv := map[string]string{}
			for _, l := range lines {
				k, v, ok := strings.Cut(l, "=")
				if !ok {
					t.Fatalf("line %q is not name=value", l)
				}
				if _, dup := kv[k]; dup {
					t.Fatalf("key %s appears twice: %v", k, lines)
				}
				kv[k] = v
			}
			num := func(k string) uint64 {
				t.Helper()
				n, err := strconv.ParseUint(kv[k], 10, 64)
				if err != nil {
					t.Fatalf("%s=%q: %v", k, kv[k], err)
				}
				return n
			}
			ev := tc.st.Events
			for i, want := range ev {
				switch sim.Counter(i) {
				case sim.CtrSecretBuffersLive:
					want = uint64(startBuffers + 2)
				case sim.CtrSecretBytesLive:
					want = uint64(startBytes + 48)
				}
				if got := num(sim.Counter(i).String()); got != want {
					t.Errorf("%s = %d, want %d", sim.Counter(i), got, want)
				}
			}
			derived := map[string]uint64{
				"keys":            uint64(s.Keys()),
				"cycles":          tc.st.Cycles,
				"decryptions":     ev[sim.CtrDecrypt],
				"epc_faults":      ev[sim.CtrEPCFaultRead] + ev[sim.CtrEPCFaultWrite],
				"ocalls":          ev[sim.CtrOCall],
				"untrusted_bytes": uint64(space.UsedBytes(mem.Untrusted)),
				"enclave_bytes":   uint64(space.UsedBytes(mem.Enclave)),
			}
			for k, want := range derived {
				if got := num(k); got != want {
					t.Errorf("%s = %d, want %d", k, got, want)
				}
			}
			vs := fmt.Sprintf("%.6f", s.enclave.Model().Seconds(tc.st.Cycles))
			if kv["virtual_seconds"] != vs {
				t.Errorf("virtual_seconds = %s, want %s", kv["virtual_seconds"], vs)
			}
			if want := len(ev) + len(derived) + 1; len(kv) != want {
				t.Errorf("%d keys, want %d: %v", len(kv), want, lines)
			}
		})
	}
	if s.Keys() != 20 || m.Events(sim.CtrDecrypt) == 0 || space.UsedBytes(mem.Untrusted) == 0 {
		t.Fatalf("store run left keys=%d decrypt=%d untrusted=%d; the table checks nothing",
			s.Keys(), m.Events(sim.CtrDecrypt), space.UsedBytes(mem.Untrusted))
	}
}

func TestScrubHookFiresOncePerLatch(t *testing.T) {
	opts := Defaults(4)
	opts.Quarantine = true
	s, m, _, _, addr := fillStore(t, opts, 30)
	fired := 0
	s.SetQuarantineHook(func() { fired++ })
	s.space.Tamper(addr+entry.HeaderSize+1, []byte{0x5A})

	for i := 0; i < 3*s.opts.MACHashes; i++ {
		if _, err := s.ScrubSlice(m, 1); err != nil {
			break
		}
	}
	if fired != 1 {
		t.Fatalf("quarantine hook fired %d times, want 1", fired)
	}
	// Further refusals must not re-fire the hook.
	if _, err := s.ScrubSlice(m, 1); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("scrub on quarantined store: %v", err)
	}
	if fired != 1 {
		t.Fatalf("hook re-fired on refusal: %d", fired)
	}
}

func TestHealthStringsAreStable(t *testing.T) {
	// The CLI and CI greps key off these exact names.
	for st, want := range map[PartState]string{
		PartHealthy:     "healthy",
		PartQuarantined: "quarantined",
		PartRebuilding:  "rebuilding",
	} {
		if got := st.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", st, got, want)
		}
	}
	line := FormatHealth([]PartHealth{{State: PartHealthy, ScrubTotal: 1}})[0]
	if !strings.HasPrefix(line, fmt.Sprintf("part%d=", 0)) {
		t.Fatalf("unexpected health line shape: %q", line)
	}
}
