//go:build linux

package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// miniature is the benchmark shrunk to about a second per workload: real
// server processes, real sessions, the whole ladder, 2,000 keys.
func miniature(t *testing.T) *settings {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin, _, err := buildServer(context.Background(), root, filepath.Join(dir, "bin"))
	if err != nil {
		t.Fatal(err)
	}
	return &settings{
		seed:      42,
		keys:      2000,
		warmup:    100 * time.Millisecond,
		window:    time.Second,
		slice:     250 * time.Millisecond,
		setups:    1,
		ladderOps: 2000,
		bin:       bin,
		tmpRoot:   filepath.Join(dir, "tmp"),
		outDir:    filepath.Join(dir, "out"),
		corruptID: -1,
	}
}

// manifest is the part of BENCHMARK.json the tables in main.go repeat.
type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(m.Workloads) != len(workloads) || len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end and %d per-layer metrics; main.go has %d, %d and %d",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || !name.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json has %+v, workload.go has %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	for i, e := range m.EndToEnd {
		g := endToEnd[i]
		if e.Name != g.name || e.Unit != g.unit || e.Better != g.better || e.Bound != g.bound || !name.MatchString(e.Name) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, main.go has %+v", i, e, g)
		}
	}
	for i, p := range m.PerLayer {
		g := perLayer[i]
		if p.Name != g.name || p.Unit != g.unit || p.Better != g.better || !name.MatchString(p.Name) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, main.go has %+v", i, p, g)
		}
	}
}

func TestSmoke(t *testing.T) {
	cfg := miniature(t)
	m := readManifest(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			r, err := runWorkload(ctx, w, cfg, true, true)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%d of %d ops failed", r.failed, r.attempted)
			}

			line, err := r.contractLine()
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Correct bool
				Metrics map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatal(err)
			}
			if !out.Correct {
				t.Error("result object says incorrect")
			}
			if want := len(m.EndToEnd) + len(m.PerLayer); len(out.Metrics) != want {
				t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(out.Metrics), want)
			}
			for _, e := range m.EndToEnd {
				if v, ok := out.Metrics[e.Name]; !ok || v.Value == nil || *v.Value <= 0 || v.Unit != e.Unit {
					t.Errorf("end-to-end metric %s: emitted %+v, want a positive number in %s", e.Name, v, e.Unit)
				}
			}
			for _, p := range m.PerLayer {
				if v, ok := out.Metrics[p.Name]; !ok || v.Value == nil || v.Unit != p.Unit {
					t.Errorf("per-layer metric %s: emitted %+v, want a number in %s", p.Name, v, p.Unit)
				}
			}

			// The counts of the traced pass are a function of the seed.
			again, err := runLadder(ctx, w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range exactMetrics {
				a, aok := r.perLayer[name]
				b, bok := again.metrics[name]
				if aok != bok || a != b {
					t.Errorf("%s differs between two ladder passes: %v (present %v) and %v (present %v)", name, a, aok, b, bok)
				}
			}
			if st, err := os.Stat(filepath.Join(cfg.outDir, "trace_"+w.name+".jsonl")); err != nil || st.Size() == 0 {
				t.Errorf("span file missing or empty: %v", err)
			}
		})
	}
}

// A value that is not what its key and version demand must show up in
// failed_ops_share: here the preload stores one wrong byte under one key.
func TestWrongValueIsCounted(t *testing.T) {
	cfg := miniature(t)
	cfg.corruptID = 6
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	r, err := runLive(ctx, findWorkload("sync_read"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed == 0 {
		t.Errorf("a corrupted value went unnoticed in %d ops", r.attempted)
	}
}
