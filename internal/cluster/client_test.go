// Cluster client tests: single-key routing, scatter-gather reassembly
// and per-op isolation, cluster-wide stats/health, dial fail-fast, and a
// concurrent stress run (the CI smoke job runs this under -race).
package cluster_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"shieldstore/internal/client"
	"shieldstore/internal/cluster"
)

// leakCheck snapshots the goroutine count and, at cleanup time — after
// the harness and client registered below have closed — polls until the
// count returns to baseline. Failover and kill/restart tests churn
// through shippers, appliers, healers and pools; a teardown that forgets
// one (the Applier.Close class of bug) fails here with full stacks
// instead of leaking silently across the suite.
func leakCheck(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		var n int
		for time.Now().Before(deadline) {
			n = runtime.NumGoroutine()
			if n <= base+2 {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Errorf("goroutine leak after teardown: %d running, baseline %d\n%s", n, base, buf)
	})
}

// startCluster boots a secure in-process harness plus a cluster client.
func startCluster(t *testing.T, cfg cluster.HarnessConfig) (*cluster.Harness, *cluster.Client) {
	t.Helper()
	leakCheck(t)
	if cfg.Buckets == 0 {
		cfg.Buckets = 1 << 10
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = 2
	}
	cfg.Secure = true
	cfg.Logf = t.Logf
	h, err := cluster.StartHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	c, err := cluster.Dial(h.Options())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return h, c
}

func TestClusterBasicOps(t *testing.T) {
	_, c := startCluster(t, cluster.HarnessConfig{Shards: 4, Seed: 5})

	shardsUsed := map[int]bool{}
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("bk%03d", i))
		v := []byte(fmt.Sprintf("bv%03d", i))
		if err := c.Set(k, v); err != nil {
			t.Fatalf("Set %s: %v", k, err)
		}
		shardsUsed[c.ShardFor(k)] = true
	}
	if len(shardsUsed) < 2 {
		t.Fatalf("64 keys used %d of 4 shards", len(shardsUsed))
	}
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("bk%03d", i))
		v, err := c.Get(k)
		if err != nil || !bytes.Equal(v, []byte(fmt.Sprintf("bv%03d", i))) {
			t.Fatalf("Get %s = %q, %v", k, v, err)
		}
	}
	if _, err := c.Get([]byte("absent")); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("Get absent: %v, want ErrNotFound", err)
	}
	if err := c.Append([]byte("bk000"), []byte("+tail")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if v, _ := c.Get([]byte("bk000")); string(v) != "bv000+tail" {
		t.Fatalf("after Append: %q", v)
	}
	if err := c.Set([]byte("ctr"), []byte("10")); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Incr([]byte("ctr"), 5); err != nil || n != 15 {
		t.Fatalf("Incr = %d, %v", n, err)
	}
	if err := c.Delete([]byte("bk001")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := c.Get([]byte("bk001")); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("Get deleted: %v", err)
	}
}

func TestClusterScatterGather(t *testing.T) {
	_, c := startCluster(t, cluster.HarnessConfig{Shards: 4, Seed: 6})

	const n = 200
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("sg%04d", i))
		vals[i] = []byte(fmt.Sprintf("sv%04d", i))
	}
	// One MSet spanning every shard.
	if err := c.MSet(keys, vals); err != nil {
		t.Fatalf("MSet: %v", err)
	}
	// One MGet spanning every shard: submission order must survive the
	// per-shard fan-out and reassembly.
	got, err := c.MGet(keys...)
	if err != nil {
		t.Fatalf("MGet: %v", err)
	}
	for i := range got {
		if !bytes.Equal(got[i], vals[i]) {
			t.Fatalf("MGet[%d] = %q, want %q", i, got[i], vals[i])
		}
	}
	// Missing keys come back nil, present ones non-nil.
	got, err = c.MGet([]byte("sg0000"), []byte("nope"), []byte("sg0001"))
	if err != nil {
		t.Fatalf("MGet with miss: %v", err)
	}
	if got[0] == nil || got[1] != nil || got[2] == nil {
		t.Fatalf("MGet miss handling: %q", got)
	}

	// Mixed batch with per-op isolation: the miss taints only its slot.
	rs := c.Batch(
		client.GetOp([]byte("sg0002")),
		client.GetOp([]byte("missing-key")),
		client.SetOp([]byte("sg-new"), []byte("fresh")),
		client.IncrOp([]byte("sg-ctr"), 3),
	)
	if rs[0].Err != nil || string(rs[0].Value) != "sv0002" {
		t.Fatalf("batch get: %q, %v", rs[0].Value, rs[0].Err)
	}
	if !errors.Is(rs[1].Err, client.ErrNotFound) {
		t.Fatalf("batch miss: %v", rs[1].Err)
	}
	if rs[2].Err != nil || rs[3].Err != nil || rs[3].Num != 3 {
		t.Fatalf("batch set/incr: %v, %v, %d", rs[2].Err, rs[3].Err, rs[3].Num)
	}
	if len(c.Batch()) != 0 {
		t.Fatal("empty batch should return an empty result set")
	}
}

func TestClusterStatsHealthPing(t *testing.T) {
	_, c := startCluster(t, cluster.HarnessConfig{Shards: 3, Seed: 7})
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	health, err := c.Health()
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	for s := 0; s < 3; s++ {
		prefix := fmt.Sprintf("shard%d/", s)
		if !hasPrefixed(stats, prefix) {
			t.Fatalf("stats missing %s lines: %v", prefix, stats)
		}
		if !hasPrefixed(health, prefix+"part0=healthy") {
			t.Fatalf("health missing %spart0=healthy: %v", prefix, health)
		}
	}
	if c.Shards() != 3 {
		t.Fatalf("Shards() = %d", c.Shards())
	}
}

func hasPrefixed(lines []string, prefix string) bool {
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			return true
		}
	}
	return false
}

// TestClusterDialFailFast: a cluster with an unreachable shard must fail
// Dial rather than silently misroute that shard's key range.
func TestClusterDialFailFast(t *testing.T) {
	h, _ := startCluster(t, cluster.HarnessConfig{Shards: 3, Seed: 8})
	h.Shard(1).Server.Close()
	if _, err := cluster.Dial(h.Options()); err == nil {
		t.Fatal("Dial succeeded with shard 1 down")
	} else if !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("error should name the dead shard: %v", err)
	}
}

// TestClusterStress is the CI smoke job's workhorse: concurrent workers
// mixing scatter-gather batches and single-key ops across a 4-shard
// secure cluster, then a full readback. Run it with -race.
func TestClusterStress(t *testing.T) {
	_, c := startCluster(t, cluster.HarnessConfig{
		Shards: 4, Seed: 9, Conns: 4, Partitions: 2,
	})
	const workers = 8
	const rounds = 30
	// Each worker also appends one suffix per round to a key only it
	// owns, inside the scatter-gather batch, so the readback knows the
	// exact value: a dropped or doubled append shows.
	appKey := func(w int) []byte { return []byte(fmt.Sprintf("st-app-%d", w)) }
	suffix := func(r int) string { return fmt.Sprintf("|%02d", r) }
	for w := 0; w < workers; w++ {
		if err := c.Set(appKey(w), []byte(fmt.Sprintf("base-%d", w))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var ops []client.Op
				for i := 0; i < 16; i++ {
					k := []byte(fmt.Sprintf("st-%d-%03d", w, (r*16+i)%64))
					ops = append(ops, client.SetOp(k, []byte(fmt.Sprintf("val-%d", w))),
						client.GetOp(k))
				}
				ops = append(ops, client.AppendOp(appKey(w), []byte(suffix(r))))
				for i, res := range c.Batch(ops...) {
					if res.Err != nil {
						errCh <- fmt.Errorf("worker %d round %d op %d: %w", w, r, i, res.Err)
						return
					}
				}
				k := []byte(fmt.Sprintf("st-single-%d", w))
				if err := c.Set(k, []byte("x")); err != nil {
					errCh <- err
					return
				}
				if _, err := c.Get(k); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Readback: the last writer of each key wrote its own id; the value
	// must be one of the workers' (no torn or cross-keyed values).
	for w := 0; w < workers; w++ {
		for i := 0; i < 64; i++ {
			k := []byte(fmt.Sprintf("st-%d-%03d", w, i))
			v, err := c.Get(k)
			if err != nil || string(v) != fmt.Sprintf("val-%d", w) {
				t.Fatalf("readback %s = %q, %v", k, v, err)
			}
		}
		want := fmt.Sprintf("base-%d", w)
		for r := 0; r < rounds; r++ {
			want += suffix(r)
		}
		if v, err := c.Get(appKey(w)); err != nil || string(v) != want {
			t.Fatalf("readback %s = %q, %v; want %q", appKey(w), v, err, want)
		}
	}
}
