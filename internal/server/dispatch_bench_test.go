// Wall-clock dispatch benchmarks: one client over a real loopback socket,
// synchronous (one in-flight request per connection) versus pipelined
// (64 frames on the wire per flush). These complement the virtual-time
// `-run dispatch` experiment in internal/bench: virtual cycles prove the
// accounting, these prove the Go hot path itself got faster.
//
// Run with:
//
//	go test ./internal/server -run='^$' -bench=Dispatch -benchmem
package server

import (
	"fmt"
	"net"
	"testing"

	"shieldstore/internal/client"
	"shieldstore/internal/core"
)

const (
	benchKeys     = 1024
	benchValSize  = 128
	pipelineDepth = 64
)

// benchServer starts a plaintext server (crypto off so the numbers
// isolate dispatch, framing and syscall costs) over a partitioned store
// wrapped by engine, and one client.
func benchServer(b *testing.B, engine func(*core.Partitioned) Engine) (*client.Client, func()) {
	b.Helper()
	e := newEnclave()
	p := core.NewPartitioned(e, 4, core.Defaults(4096))
	p.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	s := Serve(ln, Config{Engine: engine(p), Enclave: e, Secure: false, Logf: b.Logf})
	c, err := client.Dial(ln.Addr().String(), client.Options{Secure: false})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchKeys; i++ {
		if err := c.Set(benchKey(i), benchVal(i)); err != nil {
			b.Fatal(err)
		}
	}
	return c, func() {
		c.Close()
		s.Close()
		p.Stop()
	}
}

func asyncEngine(p *core.Partitioned) Engine { return CoreEngine{p} }

func benchKey(i int) []byte { return []byte(fmt.Sprintf("bench-key-%05d", i%benchKeys)) }

func benchVal(i int) []byte {
	v := make([]byte, benchValSize)
	for j := range v {
		v[j] = byte(i + j)
	}
	return v
}

// BenchmarkDispatchSyncGet is the seed-style strict request/response
// loop: every op pays a full loopback round trip.
func BenchmarkDispatchSyncGet(b *testing.B) { benchSyncGet(b, asyncEngine) }

// BenchmarkDispatchSyncGetPlainEngine is the same loop behind a
// synchronous Engine (no Submit), so each get executes inline on the
// connection's reader — the path shieldstore.DB is served on.
func BenchmarkDispatchSyncGetPlainEngine(b *testing.B) {
	benchSyncGet(b, func(p *core.Partitioned) Engine { return syncEngine{p} })
}

func benchSyncGet(b *testing.B, engine func(*core.Partitioned) Engine) {
	c, stop := benchServer(b, engine)
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(benchKey(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatchPipelinedGet keeps pipelineDepth frames in flight per
// flush: the server-side dispatch path (not the round trip) is the limit.
func BenchmarkDispatchPipelinedGet(b *testing.B) {
	c, stop := benchServer(b, asyncEngine)
	defer stop()
	pl := c.Pipeline()
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(pipelineDepth, b.N-done)
		for i := 0; i < n; i++ {
			pl.Get(benchKey(done + i))
		}
		rs, err := pl.Flush()
		if err != nil {
			b.Fatal(err)
		}
		for i := range rs {
			if rs[i].Err != nil {
				b.Fatal(rs[i].Err)
			}
		}
		done += n
	}
}

// BenchmarkDispatchPipelinedMixed is the pipelined loop under a 50/50
// get/set mix, exercising both the read and mutation dispatch paths.
func BenchmarkDispatchPipelinedMixed(b *testing.B) {
	c, stop := benchServer(b, asyncEngine)
	defer stop()
	pl := c.Pipeline()
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(pipelineDepth, b.N-done)
		for i := 0; i < n; i++ {
			if (done+i)%2 == 0 {
				pl.Get(benchKey(done + i))
			} else {
				pl.Set(benchKey(done+i), benchVal(done+i))
			}
		}
		rs, err := pl.Flush()
		if err != nil {
			b.Fatal(err)
		}
		for i := range rs {
			if rs[i].Err != nil {
				b.Fatal(rs[i].Err)
			}
		}
		done += n
	}
}
