package shieldstore

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"shieldstore/internal/client"
)

func testConfig(dir string) Config {
	return Config{
		Partitions:  2,
		Buckets:     256,
		EPCBytes:    16 << 20,
		Seed:        7,
		SnapshotDir: dir,
	}
}

func TestOpenDefaults(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get([]byte("k"))
	if err != nil || string(got) != "v" {
		t.Fatalf("%q %v", got, err)
	}
}

func TestBasicOps(t *testing.T) {
	db, err := Open(testConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 300; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		if err := db.Set(k, []byte(fmt.Sprintf("val-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if db.Keys() != 300 {
		t.Fatalf("Keys = %d", db.Keys())
	}
	for i := 0; i < 300; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		got, err := db.Get(k)
		if err != nil || string(got) != fmt.Sprintf("val-%04d", i) {
			t.Fatalf("key %d: %q %v", i, got, err)
		}
	}
	if err := db.Append([]byte("key-0000"), []byte("+")); err != nil {
		t.Fatal(err)
	}
	got, _ := db.Get([]byte("key-0000"))
	if string(got) != "val-0000+" {
		t.Fatalf("append: %q", got)
	}
	n, err := db.Incr([]byte("counter"), 41)
	if err != nil || n != 41 {
		t.Fatalf("incr: %d %v", n, err)
	}
	n, err = db.Incr([]byte("counter"), 1)
	if err != nil || n != 42 {
		t.Fatalf("incr: %d %v", n, err)
	}
	if err := db.Delete([]byte("key-0001")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("key-0001")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted: %v", err)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Keys != 300 || st.VirtualSeconds <= 0 || st.UntrustedBytes == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestConcurrentAccess(t *testing.T) {
	db, err := Open(testConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := []byte(fmt.Sprintf("g%d-%03d", g, i))
				if err := db.Set(k, []byte("v")); err != nil {
					errs <- err
					return
				}
				if _, err := db.Get(k); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if db.Keys() != 800 {
		t.Fatalf("Keys = %d", db.Keys())
	}
}

func TestSnapshotRestoreAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)

	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if err := db.Set([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: must restore from the snapshot.
	db2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Keys() != 120 {
		t.Fatalf("restored keys = %d", db2.Keys())
	}
	for i := 0; i < 120; i++ {
		got, err := db2.Get([]byte(fmt.Sprintf("k%03d", i)))
		if err != nil || string(got) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("key %d: %q %v", i, got, err)
		}
	}
	if err := db2.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotWithoutDirFails(t *testing.T) {
	db, err := Open(testConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Snapshot(); err == nil {
		t.Fatal("snapshot without dir must fail")
	}
}

func TestServeAndDial(t *testing.T) {
	db, err := Open(testConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := db.Serve(ln, ServeOptions{HotCalls: true})
	defer srv.Close()

	c, err := client.Dial(srv.Addr().String(), client.Options{
		Verifier:    db.Enclave(),
		Measurement: Measurement(),
		Secure:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set([]byte("net"), []byte("worked")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get([]byte("net"))
	if err != nil || !bytes.Equal(got, []byte("worked")) {
		t.Fatalf("%q %v", got, err)
	}
	// Local and remote views agree.
	local, err := db.Get([]byte("net"))
	if err != nil || string(local) != "worked" {
		t.Fatalf("local view: %q %v", local, err)
	}
}

func TestAblationConfigs(t *testing.T) {
	cfg := testConfig("")
	cfg.DisableKeyHint = true
	cfg.DisableMACBucket = true
	cfg.DisableExtraHeap = true
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		if err := db.Set(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheConfig(t *testing.T) {
	cfg := testConfig("")
	cfg.CacheBytes = 1 << 20
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Set([]byte("hot"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := db.Get([]byte("hot")); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIncrNotNumeric(t *testing.T) {
	db, err := Open(testConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Set([]byte("s"), []byte("text")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Incr([]byte("s"), 1); !errors.Is(err, ErrNotNumeric) {
		t.Fatalf("err = %v", err)
	}
}

func TestParseInt(t *testing.T) {
	good := map[string]int64{"0": 0, "42": 42, "-7": -7, "+3": 3}
	for s, want := range good {
		n, err := parseInt([]byte(s))
		if err != nil || n != want {
			t.Errorf("parseInt(%q) = %d, %v", s, n, err)
		}
	}
	for _, s := range []string{"", "-", "1a", "a"} {
		if _, err := parseInt([]byte(s)); err == nil {
			t.Errorf("parseInt(%q) accepted", s)
		}
	}
}

func TestCounterNVRAMFileCreated(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := filepath.Glob(filepath.Join(dir, "nvram.bin")); err != nil {
		t.Fatal(err)
	}
}

func TestRangeQueries(t *testing.T) {
	cfg := testConfig("")
	cfg.RangeIndex = true
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 100; i++ {
		if err := db.Set([]byte(fmt.Sprintf("item-%03d", i)), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	kvs, err := db.Range([]byte("item-020"), []byte("item-030"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 10 {
		t.Fatalf("range: %d pairs, want 10", len(kvs))
	}
	for i, kv := range kvs {
		want := fmt.Sprintf("item-%03d", 20+i)
		if string(kv.Key) != want {
			t.Fatalf("pair %d: %q, want %q (cross-partition merge broken)", i, kv.Key, want)
		}
	}
	// Limit across partitions.
	kvs, err = db.Range(nil, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 5 || string(kvs[0].Key) != "item-000" || string(kvs[4].Key) != "item-004" {
		t.Fatalf("limited range wrong: %d pairs", len(kvs))
	}
	// Disabled by default.
	db2, err := Open(testConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Range(nil, nil, 0); err == nil {
		t.Fatal("range without index must fail")
	}
}

func TestStatsOverNetwork(t *testing.T) {
	db, err := Open(testConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := db.Serve(ln, ServeOptions{})
	defer srv.Close()
	c, err := client.Dial(srv.Addr().String(), client.Options{
		Verifier: db.Enclave(), Measurement: Measurement(), Secure: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	lines, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	kv := map[string]string{}
	for _, l := range lines {
		k, v, _ := strings.Cut(l, "=")
		if _, dup := kv[k]; dup {
			t.Fatalf("key %s appears twice: %v", k, lines)
		}
		kv[k] = v
	}
	// The benchmark's compatibility keys (benchmark/README.md) that a
	// standalone node serves; repl_assigned and repl_lag are primary-only.
	st := db.Stats()
	for k, want := range map[string]string{
		"keys":               fmt.Sprint(st.Keys),
		"virtual_seconds":    fmt.Sprintf("%.6f", st.VirtualSeconds),
		"decryptions":        fmt.Sprint(st.Decryptions),
		"epc_faults":         fmt.Sprint(st.EPCFaults),
		"ocalls":             fmt.Sprint(st.OCalls),
		"untrusted_bytes":    fmt.Sprint(st.UntrustedBytes),
		"enclave_bytes":      fmt.Sprint(st.EnclaveBytes),
		"vlog_spill":         fmt.Sprint(st.VLogSpills),
		"vlog_fault":         fmt.Sprint(st.VLogFaults),
		"vlog_gc_copy":       fmt.Sprint(st.VLogGCCopies),
		"vlog_segments_live": fmt.Sprint(st.VLogSegments),
	} {
		if got, ok := kv[k]; !ok || got != want {
			t.Errorf("%s = %q (present %v), DB.Stats says %s", k, got, ok, want)
		}
	}
	if st.Keys != 1 || st.UntrustedBytes == 0 {
		t.Fatalf("DB.Stats = %+v after one set", st)
	}
}

func TestLatencyStats(t *testing.T) {
	db, err := Open(testConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		if err := db.Set(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.LatencyP50Us <= 0 || st.LatencyP99Us < st.LatencyP50Us || st.LatencyMeanUs <= 0 {
		t.Fatalf("latency stats wrong: %+v", st)
	}
	// Single-thread ShieldStore ops land in the paper's microsecond range.
	if st.LatencyP50Us > 100 {
		t.Fatalf("p50 = %.1f us, implausibly slow", st.LatencyP50Us)
	}
}
