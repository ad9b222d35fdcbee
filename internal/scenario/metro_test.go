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
		{"certain loss", func(c *MetroConfig) { c.LossRate = 1 }, true},
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
