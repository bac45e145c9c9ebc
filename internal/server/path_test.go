package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"

	"shieldstore/internal/core"
	"shieldstore/internal/proto"
	"shieldstore/internal/sgx"
	"shieldstore/internal/sim"
)

// syncEngine serves a core.Partitioned through the Engine methods alone.
// Hiding Submit makes the front-end execute every request inline on the
// connection's reader, the way it serves shieldstore.DB and the baselines;
// batches go through the per-op fallback.
type syncEngine struct{ p *core.Partitioned }

func (e syncEngine) Get(m *sim.Meter, key []byte) ([]byte, error) { return e.p.Get(m, key) }
func (e syncEngine) Set(m *sim.Meter, key, value []byte) error    { return e.p.Set(m, key, value) }
func (e syncEngine) Delete(m *sim.Meter, key []byte) error        { return e.p.Delete(m, key) }
func (e syncEngine) Append(m *sim.Meter, key, suffix []byte) error {
	return e.p.Append(m, key, suffix)
}
func (e syncEngine) Incr(m *sim.Meter, key []byte, delta int64) (int64, error) {
	return e.p.Incr(m, key, delta)
}

// syncBatchEngine is syncEngine plus the native BatchEngine path.
type syncBatchEngine struct{ syncEngine }

func (e syncBatchEngine) ExecBatch(m *sim.Meter, ops []core.BatchOp) []core.BatchResult {
	return e.p.ExecBatch(m, ops)
}

// seededStore starts a two-partition store holding a=1, b=2 and n=10.
func seededStore(t *testing.T, e *sgx.Enclave) *core.Partitioned {
	t.Helper()
	p := core.NewPartitioned(e, 2, core.Defaults(64))
	p.Start()
	t.Cleanup(p.Stop)
	m := sim.NewMeter(e.Model())
	for _, kv := range [][2]string{{"a", "1"}, {"b", "2"}, {"n", "10"}} {
		if err := p.Set(m, []byte(kv[0]), []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// rawConn dials a plaintext server; requests go out as hand-built frames
// so malformed payloads can be sent and every status seen unmapped.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// roundTrip sends one request frame and decodes the reply.
func roundTrip(t *testing.T, conn net.Conn, req *proto.Request) *proto.Response {
	t.Helper()
	if err := proto.WriteFrame(conn, proto.EncodeRequest(req)); err != nil {
		t.Fatal(err)
	}
	frame, err := proto.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := proto.DecodeResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func batchRequest(t *testing.T, ops ...proto.BatchOp) *proto.Request {
	t.Helper()
	payload, err := proto.EncodeBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	return &proto.Request{Cmd: proto.CmdBatch, Value: payload}
}

func mgetRequest(keys ...string) *proto.Request {
	items := make([][]byte, len(keys))
	for i, k := range keys {
		items[i] = []byte(k)
	}
	return &proto.Request{Cmd: proto.CmdMGet, Value: proto.EncodeList(items)}
}

// contents reads the probe keys straight from the store.
func contents(t *testing.T, e *sgx.Enclave, p *core.Partitioned) map[string]string {
	t.Helper()
	m := sim.NewMeter(e.Model())
	out := map[string]string{"keys": fmt.Sprint(p.Keys())}
	for _, k := range []string{"a", "b", "n", "x"} {
		v, err := p.Get(m, []byte(k))
		switch {
		case errors.Is(err, core.ErrNotFound):
			out[k] = "<missing>"
		case err != nil:
			t.Fatalf("get %s: %v", k, err)
		default:
			out[k] = string(v)
		}
	}
	return out
}

// TestFencedNodeServesReadsOnly drives a non-writable node with a mixed
// batch, single mutations and an MGet, once through an async engine and
// once through a synchronous one: reads are answered, every mutation is
// StatusFenced, and the store is untouched.
func TestFencedNodeServesReadsOnly(t *testing.T) {
	engines := map[string]func(*core.Partitioned) Engine{
		"async": func(p *core.Partitioned) Engine { return CoreEngine{p} },
		"sync":  func(p *core.Partitioned) Engine { return syncEngine{p} },
	}
	for name, engine := range engines {
		t.Run(name, func(t *testing.T) {
			e := newEnclave()
			p := seededStore(t, e)
			_, addr := startServer(t, Config{
				Engine:   engine(p),
				Enclave:  e,
				Writable: func() bool { return false },
			})
			conn := rawConn(t, addr)
			before := contents(t, e, p)

			resp := roundTrip(t, conn, batchRequest(t,
				proto.BatchOp{Cmd: proto.CmdGet, Key: []byte("a")},
				proto.BatchOp{Cmd: proto.CmdSet, Key: []byte("x"), Value: []byte("new")},
				proto.BatchOp{Cmd: proto.CmdGet, Key: []byte("x")},
				proto.BatchOp{Cmd: proto.CmdDelete, Key: []byte("b")},
				proto.BatchOp{Cmd: proto.CmdAppend, Key: []byte("a"), Value: []byte("!")},
				proto.BatchOp{Cmd: proto.CmdIncr, Key: []byte("n"), Delta: 1},
				proto.BatchOp{Cmd: proto.CmdGet, Key: []byte("b")},
			))
			if resp.Status != proto.StatusOK {
				t.Fatalf("batch status = %d", resp.Status)
			}
			rs, err := proto.DecodeBatchResults(resp.Value)
			if err != nil {
				t.Fatal(err)
			}
			want := []proto.BatchResult{
				{Status: proto.StatusOK, Value: []byte("1")},
				{Status: proto.StatusFenced},
				{Status: proto.StatusNotFound},
				{Status: proto.StatusFenced},
				{Status: proto.StatusFenced},
				{Status: proto.StatusFenced},
				{Status: proto.StatusOK, Value: []byte("2")},
			}
			if !reflect.DeepEqual(rs, want) {
				t.Fatalf("fenced batch:\n got %+v\nwant %+v", rs, want)
			}

			for _, req := range []*proto.Request{
				{Cmd: proto.CmdSet, Key: []byte("x"), Value: []byte("new")},
				{Cmd: proto.CmdDelete, Key: []byte("a")},
				{Cmd: proto.CmdAppend, Key: []byte("a"), Value: []byte("!")},
				{Cmd: proto.CmdIncr, Key: []byte("n"), Delta: 1},
			} {
				if r := roundTrip(t, conn, req); r.Status != proto.StatusFenced {
					t.Fatalf("single cmd %d: status %d, want StatusFenced", req.Cmd, r.Status)
				}
			}

			resp = roundTrip(t, conn, mgetRequest("a", "x", "b"))
			if resp.Status != proto.StatusOK {
				t.Fatalf("mget status = %d", resp.Status)
			}
			vals, err := proto.DecodeList(resp.Value)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(vals, [][]byte{[]byte("1"), nil, []byte("2")}) {
				t.Fatalf("mget = %q", vals)
			}

			if after := contents(t, e, p); !reflect.DeepEqual(after, before) {
				t.Fatalf("fenced node changed its store:\nbefore %v\n after %v", before, after)
			}
		})
	}
}

// TestSyncAndAsyncPathsAnswerAlike runs one request script against
// CoreEngine and against a synchronous adapter over an identical store:
// inline execution and Submit must produce byte-identical responses.
func TestSyncAndAsyncPathsAnswerAlike(t *testing.T) {
	script := []*proto.Request{
		{Cmd: proto.CmdGet, Key: []byte("a")},
		{Cmd: proto.CmdGet, Key: []byte("nope")},
		{Cmd: proto.CmdSet, Key: []byte("c"), Value: []byte("3")},
		{Cmd: proto.CmdGet, Key: []byte("c")},
		{Cmd: proto.CmdDelete, Key: []byte("b")},
		{Cmd: proto.CmdDelete, Key: []byte("b")},
		{Cmd: proto.CmdAppend, Key: []byte("a"), Value: []byte("+x")},
		{Cmd: proto.CmdGet, Key: []byte("a")},
		{Cmd: proto.CmdIncr, Key: []byte("n"), Delta: 5},
		{Cmd: proto.CmdIncr, Key: []byte("a"), Delta: 1},
		mgetRequest("a", "nope", "c"),
		batchRequest(t,
			proto.BatchOp{Cmd: proto.CmdGet, Key: []byte("a")},
			proto.BatchOp{Cmd: proto.CmdSet, Key: []byte("d"), Value: []byte("4")},
			proto.BatchOp{Cmd: 0x7F, Key: []byte("a")},
			proto.BatchOp{Cmd: proto.CmdIncr, Key: []byte("n"), Delta: 1},
			proto.BatchOp{Cmd: proto.CmdGet, Key: []byte("nope")},
		),
		{Cmd: proto.CmdMGet, Value: []byte{1, 2}},
		{Cmd: proto.CmdBatch, Value: []byte{9, 0, 0, 0}},
		{Cmd: proto.CmdPing},
		{Cmd: proto.CmdStats},
		{Cmd: 0xEE},
	}
	replay := func(engine func(*core.Partitioned) Engine) []*proto.Response {
		e := newEnclave()
		p := seededStore(t, e)
		_, addr := startServer(t, Config{
			Engine:  engine(p),
			Enclave: e,
			Stats:   func() []string { return []string{fmt.Sprintf("keys=%d", p.Keys())} },
		})
		conn := rawConn(t, addr)
		out := make([]*proto.Response, len(script))
		for i, req := range script {
			out[i] = roundTrip(t, conn, req)
		}
		return out
	}
	async := replay(func(p *core.Partitioned) Engine { return CoreEngine{p} })
	inline := replay(func(p *core.Partitioned) Engine { return syncBatchEngine{syncEngine{p}} })
	for i := range script {
		a, s := async[i], inline[i]
		if a.Status != s.Status || a.Num != s.Num || !bytes.Equal(a.Value, s.Value) {
			t.Errorf("script[%d] cmd %d: async %+v, sync %+v", i, script[i].Cmd, a, s)
		}
	}
	// The script reaches every mapping at least once; a few anchors guard
	// against both paths being wrong the same way.
	if async[1].Status != proto.StatusNotFound || async[8].Num != 15 ||
		async[9].Status == proto.StatusOK || async[12].Status != proto.StatusError {
		t.Fatalf("unexpected anchors: miss %d, incr %d, bad incr %d, bad mget %d",
			async[1].Status, async[8].Num, async[9].Status, async[12].Status)
	}
}
