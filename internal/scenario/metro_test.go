package scenario

import (
	"context"
	"math"
	"reflect"
	"testing"
)

func metroN(t *testing.T) int64 {
	t.Helper()
	if testing.Short() {
		return 2_000
	}
	return 10_000
}

func TestRunMetroBasics(t *testing.T) {
	cfg := MetroPaper(metroN(t), 1)
	res, err := RunMetro(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != cfg.Deploy.NumNodes {
		t.Fatalf("Nodes = %d, want %d", res.Nodes, cfg.Deploy.NumNodes)
	}
	if res.Beacons == 0 || res.Malicious == 0 {
		t.Fatalf("degenerate population: %d beacons, %d malicious", res.Beacons, res.Malicious)
	}
	wantProbes := res.Nodes * metroRounds
	if res.Probes != wantProbes {
		t.Errorf("Probes = %d, want %d (every node runs every round)", res.Probes, wantProbes)
	}
	if res.Replies+res.Timeouts != res.Probes {
		t.Errorf("replies %d + timeouts %d != probes %d", res.Replies, res.Timeouts, res.Probes)
	}
	lossRate := float64(res.Timeouts) / float64(res.Probes)
	if lossRate < metroLossRate/2 || lossRate > metroLossRate*2 {
		t.Errorf("timeout rate = %v, configured loss %v", lossRate, metroLossRate)
	}
	// A 1.5·ε bias shifts the declared error to [0.5ε, 2.5ε]: 3/4 of
	// malicious replies exceed ε_max.
	if res.FlagRate < 0.6 || res.FlagRate > 0.9 {
		t.Errorf("FlagRate = %v, want ≈ 0.75 for bias 1.5·ε", res.FlagRate)
	}
	if res.FlaggedBenign != 0 {
		t.Errorf("FlaggedBenign = %d: benign error is bounded by ε_max", res.FlaggedBenign)
	}
	if res.Sim.MaxPending < res.Nodes/2 {
		t.Errorf("MaxPending = %d, want a standing population near %d", res.Sim.MaxPending, res.Nodes)
	}
	if res.QueueDepth.Count == 0 || res.RTT.Count != uint64(res.Replies) {
		t.Errorf("histograms unfilled: depth %d, rtt %d (replies %d)",
			res.QueueDepth.Count, res.RTT.Count, res.Replies)
	}
}

func TestRunMetroDeterministic(t *testing.T) {
	cfg := MetroPaper(metroN(t), 3)
	a, err := RunMetro(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMetro(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config, different results:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 99
	c, err := RunMetro(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Replies == c.Replies && a.FlaggedMalicious == c.FlaggedMalicious {
		t.Error("different seeds produced identical probe outcomes (suspicious)")
	}
}

// maxMetroNodes is deploy's bound on a metro population.
const maxMetroNodes = 1 << 30

func TestRunMetroValidates(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*MetroConfig)
		wantErr bool
	}{
		{"baseline accepted", func(c *MetroConfig) {}, false},
		{"invalid deployment", func(c *MetroConfig) { c.Deploy.NumNodes = 0 }, true},
		{"negative workers", func(c *MetroConfig) { c.Workers = -1 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := MetroPaper(1000, 1)
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr && err == nil {
				t.Errorf("%s: Validate accepted the config", tc.name)
			}
			if !tc.wantErr && err != nil {
				t.Errorf("%s: Validate rejected the config: %v", tc.name, err)
			}
			if tc.wantErr {
				if _, rerr := RunMetro(context.Background(), cfg); rerr == nil {
					t.Errorf("%s: RunMetro accepted the config", tc.name)
				}
			}
		})
	}
}

// FuzzMetroConfig feeds arbitrary values of what a metro run leaves
// settable — the population, the worker count and both seeds — to
// Validate, which must accept exactly the populations in
// [1, maxMetroNodes] with a non-negative worker count and never panic.
// An accepted config of at most 2,000 nodes (one streaming chunk, so one
// shard at any Workers) must also run: RunMetro may neither panic nor
// fail, and every node must run every round.
func FuzzMetroConfig(f *testing.F) {
	for _, c := range []struct {
		nodes   int64
		workers int
	}{
		{1000, 0},
		{0, 1},
		{1, 1},
		{maxMetroNodes, 1},
		{maxMetroNodes + 1, 1},
		{math.MaxInt64, 1},
		{1000, -1},
		{1000, math.MaxInt},
		{2000, 4},
	} {
		f.Add(c.nodes, c.workers, uint64(1), uint64(1))
	}
	f.Fuzz(func(t *testing.T, nodes int64, workers int, deploySeed, seed uint64) {
		cfg := MetroPaper(nodes, deploySeed)
		cfg.Workers, cfg.Seed = workers, seed
		valid := nodes >= 1 && nodes <= maxMetroNodes && workers >= 0
		if err := cfg.Validate(); (err == nil) != valid {
			t.Fatalf("Validate(%d nodes, %d workers) = %v, want valid %v", nodes, workers, err, valid)
		}
		if !valid || nodes > 2000 {
			return
		}
		res, err := RunMetro(context.Background(), cfg)
		if err != nil {
			t.Fatalf("accepted config failed: %v (%+v)", err, cfg)
		}
		if res.Probes != nodes*metroRounds || res.Replies+res.Timeouts != res.Probes {
			t.Fatalf("%d probes (%d replies, %d timeouts), want %d nodes × %d rounds",
				res.Probes, res.Replies, res.Timeouts, nodes, metroRounds)
		}
	})
}

// raceEnabled is set by race_test.go under -race builds.
var raceEnabled bool

// TestRunMetroAllocs pins the kernel's allocations per node. A node
// costs one malloc, its chain, which embeds the event its probes,
// replies and next probes fire from. The only other mallocs are the
// pooled timeouts queued at peak (about 0.11 per node) and a per-run
// constant. Probe exchanges allocate nothing: a malloc per exchange
// would add metroRounds per node and break the bound.
func TestRunMetroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs allocation behavior; pin not meaningful")
	}
	const n = 20_000
	cfg := MetroPaper(n, 1)
	perNode := testing.AllocsPerRun(1, func() {
		if _, err := RunMetro(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}) / n
	t.Logf("mallocs per node: %.3f at %d rounds", perNode, metroRounds)
	if perNode > 1.5 {
		t.Errorf("%.2f mallocs per node at %d rounds, want at most 1.5", perNode, metroRounds)
	}
}

func BenchmarkRunMetro10k(b *testing.B) {
	if testing.Short() {
		b.Skip("metro-scale macro benchmark; run without -short")
	}
	cfg := MetroPaper(10_000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunMetro(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
