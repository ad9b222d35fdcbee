package scenario

import (
	"context"
	"math"
	"reflect"
	"testing"

	"beaconsec/internal/sim"
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
	wantProbes := res.Nodes * int64(cfg.Rounds)
	if res.Probes != wantProbes {
		t.Errorf("Probes = %d, want %d (every node runs every round)", res.Probes, wantProbes)
	}
	if res.Replies+res.Timeouts != res.Probes {
		t.Errorf("replies %d + timeouts %d != probes %d", res.Replies, res.Timeouts, res.Probes)
	}
	lossRate := float64(res.Timeouts) / float64(res.Probes)
	if lossRate < cfg.LossRate/2 || lossRate > cfg.LossRate*2 {
		t.Errorf("timeout rate = %v, configured loss %v", lossRate, cfg.LossRate)
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

func TestRunMetroValidates(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*MetroConfig)
		wantErr bool
	}{
		{"baseline accepted", func(c *MetroConfig) {}, false},
		{"zero rounds", func(c *MetroConfig) { c.Rounds = 0 }, true},
		{"invalid deployment", func(c *MetroConfig) { c.Deploy.Range = 0 }, true},
		{"sub-cycle timeout", func(c *MetroConfig) { c.Timeout = 2 }, true},
		// The boundary of the Timeout >= 4 rule: the rtt span is
		// Timeout/2, so 3 would collapse replies onto the probe tick.
		{"timeout 3 rejected", func(c *MetroConfig) { c.Timeout = 3 }, true},
		{"timeout 4 accepted", func(c *MetroConfig) { c.Timeout = 4 }, false},
		{"timeout overflows clock", func(c *MetroConfig) { c.Timeout = sim.Time(math.MaxUint64 / 2) }, true},
		// An absurd Spacing used to overflow the Spacing/4+1 jitter
		// arithmetic into a scheduling-in-the-past panic; Validate must
		// reject it as a config error instead.
		{"spacing overflows clock", func(c *MetroConfig) { c.Spacing = sim.Time(math.MaxUint64 / 4) }, true},
		// 2·Rounds+2 wrapped to zero here and the Spacing check divided
		// by it.
		{"max rounds", func(c *MetroConfig) { c.Rounds = math.MaxInt64 }, true},
		{"max rounds - 1", func(c *MetroConfig) { c.Rounds = math.MaxInt64 - 1 }, true},
		{"certain loss", func(c *MetroConfig) { c.LossRate = 1 }, true},
		{"NaN loss", func(c *MetroConfig) { c.LossRate = math.NaN() }, true},
		{"NaN attack bias", func(c *MetroConfig) { c.AttackBias = math.NaN() }, true},
		{"NaN max error", func(c *MetroConfig) { c.MaxDistError = math.NaN() }, true},
		{"infinite max error", func(c *MetroConfig) { c.MaxDistError = math.Inf(1) }, true},
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

// FuzzMetroConfig feeds arbitrary values of the metro knobs, the
// deployment's among them, to Validate, which must never panic. An
// accepted config that fits a small run budget must also run: RunMetro
// may neither panic nor fail, and every node must run every round.
func FuzzMetroConfig(f *testing.F) {
	base := MetroPaper(1000, 1)
	seed := func(mutate func(*MetroConfig)) {
		c := base
		mutate(&c)
		d := c.Deploy
		f.Add(c.Rounds, uint64(c.Spacing), uint64(c.Timeout), c.LossRate, c.AttackBias,
			c.MaxDistError, c.Workers, d.NumNodes,
			d.Range, d.BeaconFrac, d.MaliciousFrac, d.ClusterWeight, d.ClusterSigma)
	}
	seed(func(c *MetroConfig) {})
	seed(func(c *MetroConfig) { c.Rounds = math.MaxInt64 })
	seed(func(c *MetroConfig) { c.Workers = math.MaxInt })
	seed(func(c *MetroConfig) { c.Deploy.NumNodes = math.MaxInt64 })
	seed(func(c *MetroConfig) { c.Spacing, c.Timeout, c.Rounds = 1, 4, 4 })
	seed(func(c *MetroConfig) { c.Workers, c.Deploy.NumNodes = 4, 2000 })
	seed(func(c *MetroConfig) { c.LossRate, c.MaxDistError = math.NaN(), math.Inf(1) })
	seed(func(c *MetroConfig) { c.Deploy.Range, c.Deploy.BeaconFrac = math.NaN(), math.NaN() })
	seed(func(c *MetroConfig) { c.Deploy.ClusterWeight, c.Deploy.ClusterSigma = math.NaN(), math.Inf(1) })
	f.Fuzz(func(t *testing.T, rounds int, spacing, timeout uint64, loss, bias, maxErr float64,
		workers int, nodes int64, radio, beacons, malicious, weight, sigma float64) {
		cfg := base
		cfg.Rounds, cfg.Spacing, cfg.Timeout = rounds, sim.Time(spacing), sim.Time(timeout)
		cfg.LossRate, cfg.AttackBias, cfg.MaxDistError = loss, bias, maxErr
		cfg.Workers, cfg.Deploy.NumNodes = workers, nodes
		d := &cfg.Deploy
		d.Range, d.BeaconFrac, d.MaliciousFrac, d.ClusterWeight, d.ClusterSigma = radio, beacons, malicious, weight, sigma
		if cfg.Validate() != nil || !fitsFuzzBudget(cfg) {
			return
		}
		res, err := RunMetro(context.Background(), cfg)
		if err != nil {
			t.Fatalf("accepted config failed: %v (%+v)", err, cfg)
		}
		if res.Probes != nodes*int64(rounds) || res.Replies+res.Timeouts != res.Probes {
			t.Fatalf("%d probes (%d replies, %d timeouts), want %d nodes × %d rounds",
				res.Probes, res.Replies, res.Timeouts, nodes, rounds)
		}
	})
}

// fitsFuzzBudget reports whether an accepted config is small enough to
// run inside one fuzz input: at most 2,000 nodes (one streaming chunk,
// so one shard at any Workers), 4 rounds and 10^4 lockstep epochs. The
// last event lands by Spacing·2·(Rounds+1) + Timeout (Validate's bound
// keeps that under 2^63), and the kernel runs one epoch per Timeout up
// to it.
func fitsFuzzBudget(c MetroConfig) bool {
	if c.Deploy.NumNodes > 2000 || c.Rounds > 4 {
		return false
	}
	last := uint64(c.Spacing)*2*uint64(c.Rounds+1) + uint64(c.Timeout)
	return last/uint64(c.Timeout) <= 10_000
}

// raceEnabled is set by race_test.go under -race builds.
var raceEnabled bool

// TestRunMetroAllocs pins the kernel's allocations per node. A node
// costs one malloc, its chain, which embeds the event its probes,
// replies and next probes fire from. The only other mallocs are the
// pooled timeouts queued at peak (about 0.11 per node) and a per-run
// constant. Probe exchanges allocate nothing, so doubling the rounds
// barely moves the count.
func TestRunMetroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs allocation behavior; pin not meaningful")
	}
	const n = 20_000
	perNode := func(rounds int) float64 {
		cfg := MetroPaper(n, 1)
		cfg.Rounds = rounds
		return testing.AllocsPerRun(1, func() {
			if _, err := RunMetro(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
		}) / n
	}
	three, six := perNode(3), perNode(6)
	t.Logf("mallocs per node: %.3f at 3 rounds, %.3f at 6", three, six)
	if three > 1.5 {
		t.Errorf("%.2f mallocs per node at 3 rounds, want at most 1.5", three)
	}
	if six-three >= 0.1 {
		t.Errorf("3 more rounds add %.2f mallocs per node, want under 0.1", six-three)
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
