package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smallSizes run every workload in a few seconds.
var smallSizes = sizes{
	paperQuick:  true,
	quickFigs:   []string{"fig04", "fig12", "fig13"},
	metroNodes:  20_000,
	revokeEpoch: 2500,
}

// TestWorkloadsSmall runs every workload at small size, untraced and
// traced, and checks what a full run promises: passing output checks,
// every metric present and positive where it must be, CPU shares that sum
// to 100%, and traced outputs identical to the shipped binaries'.
func TestWorkloadsSmall(t *testing.T) {
	ctx := context.Background()
	s, err := newSession(ctx, "..", time.Millisecond, smallSizes)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	s.traceDir = filepath.Join(s.tmp, "trace")
	if err := os.MkdirAll(s.traceDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, err := s.measure(ctx, w, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			if !plain.Correct {
				t.Errorf("untraced checks failed: %v", plain.Checks)
			}
			for _, m := range plain.Metrics {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("untraced %s = %v, want a positive number", m.Name, m.Value)
				}
			}

			traced, err := s.measure(ctx, w, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Errorf("traced checks failed: %v", traced.Checks)
			}
			if len(traced.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d per-layer metrics, want %d", len(traced.Metrics), len(perLayer))
			}
			var shares float64
			for _, m := range traced.Metrics {
				if strings.HasSuffix(m.Name, ".cpu_share") {
					shares += m.Value
				}
			}
			if math.Abs(shares-100) > 1 {
				t.Errorf("CPU shares sum to %v%%, want 100 ± 1", shares)
			}
			if !digestsMatch(traced.Digests, plain.Digests) {
				t.Errorf("traced digests %v differ from untraced %v", traced.Digests, plain.Digests)
			}
			spans, err := readSpans(filepath.Join(s.traceDir, w.name+".spans.json"))
			if err != nil || len(spans) == 0 {
				t.Errorf("spans: %d read, err %v", len(spans), err)
			}
		})
	}
}

func readSpans(path string) ([]span, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []span
	return spans, json.Unmarshal(b, &spans)
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"--workload", "metro-1m", "--seed", "7", "--seconds", "3", "--trace", "1"}, io.Discard)
	if err != nil || cfg.workload != "metro-1m" || cfg.seed != 7 || cfg.seconds != 3 || !cfg.trace {
		t.Fatalf("double-dash flags parsed as %+v, %v", cfg, err)
	}
	bad := [][]string{
		{"-workload", "bogus"}, {"-workload", ""}, {"-seconds", "0"}, {"-seconds", "-5"},
		{"-seconds", "99999999999999999999"}, {"-seconds", "x"}, {"-trace", "2"}, {"-trace", "-1"},
		{"-trace", "yes"}, {"-seed", "-1"}, {"-seed", "1e3"},
		{"stray"}, {"-nope"},
	}
	for _, args := range bad {
		var stderr bytes.Buffer
		if code := run(context.Background(), args, io.Discard, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
	}
	_, err = parseFlags([]string{"-workload", "bogus"}, io.Discard)
	for _, name := range append(workloadNames(), "all") {
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-workload error %v does not list %q", err, name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics this program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var bench struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name || bench.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, want %s: %s", i, bench.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better ||
				(g.Bound == nil) != (kind == "per_layer") || (g.Bound != nil && *g.Bound != d.bound) {
				t.Errorf("%s %d is %+v, want %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
}

func TestLayerShares(t *testing.T) {
	out := `File: bench
Type: cpu
Duration: 1s, Total samples = 40ms (4.00%)
-----------+-------------------------------------------------------
      10ms   math.Sqrt (inline)
             beaconsec/internal/geo.Point.Dist
             beaconsec/internal/phy.(*Medium).launch
-----------+-------------------------------------------------------
      20ms   beaconsec/internal/scenario.Run.(*Beacon).StartDetection.func6.1
             beaconsec/internal/sim.(*Scheduler).Step
-----------+-------------------------------------------------------
      5ms    runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      3ms    main.drive.func1
             beaconsec/internal/harness.Sweep[go.shape.*uint8].func1
-----------+-------------------------------------------------------
      2ms    beaconsec/internal/wormhole.(*Tunnel).Carry
-----------+-------------------------------------------------------
`
	got, err := layerShares([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"geo": 25, "scenario": 50, "runtime": 12.5, "bench": 7.5, "other": 5}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-9 {
			t.Errorf("%s share %v, want %v (all: %v)", l, got[l], w, got)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5}); q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v %v %v", q1, q2, q3)
	}
}

func TestParseMetro(t *testing.T) {
	out := []byte("population           20000 nodes\n" +
		"queue                auto x 2 worker(s) (max pending 1, p99 depth 2)\n" +
		"probes               60000 sent\n" +
		"events               120000 fired in 0.05s wall clock (2.40M events/s, GOMAXPROCS=2 of 2 CPUs)\n" +
		"memory               ~20 MB peak footprint\n")
	run, err := parseMetro(out)
	if err != nil || run.events != 120000 || run.identity != "population           20000 nodes\nprobes               60000 sent" {
		t.Fatalf("parseMetro = %+v, %v", run, err)
	}
	if _, err := parseMetro([]byte("population 1\n")); err == nil {
		t.Error("a report without an events line parsed")
	}
}
