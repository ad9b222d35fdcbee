package node_test

import (
	"testing"

	"beaconsec/internal/analysis"
	"beaconsec/internal/geo"
	"beaconsec/internal/mac"
	"beaconsec/internal/node"
	"beaconsec/internal/scenario"
)

// TestRadiosFilterUnicast runs the scenario package's golden config —
// CSMA contention, a wormhole tunnel, a replay attacker and collusion
// traffic — and checks that address filtering happens in the radio: no
// endpoint sees a unicast frame for an identity it does not own, so
// every NotForUs is zero, and the medium hands each endpoint exactly the
// frames its counters account for.
func TestRadiosFilterUnicast(t *testing.T) {
	cfg := scenario.Paper()
	cfg.Deploy.N = 300
	cfg.Deploy.Nb = 33
	cfg.Deploy.Na = 3
	cfg.Deploy.Field = geo.Square(550)
	cfg.Deploy.Seed = 21
	cfg.Strategy = analysis.StrategyForP(0.3)
	cfg.CalibrationTrials = 500
	cfg.Seed = 21
	cfg.Wormholes = []scenario.WormholeSpec{{
		A: geo.Point{X: 100, Y: 100},
		B: geo.Point{X: 450, Y: 450},
	}}
	cfg.ReplayAttackers = []geo.Point{{X: 275, Y: 275}}
	cfg.Collude = true
	res, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var eps []*mac.Endpoint
	for _, b := range res.Beacons() {
		eps = append(eps, node.BeaconEndpoint(b))
	}
	for _, m := range res.MaliciousNodes() {
		eps = append(eps, node.MaliciousEndpoint(m))
	}
	for _, s := range res.Sensors() {
		eps = append(eps, node.SensorEndpoint(s))
	}
	if len(eps) != cfg.Deploy.N {
		t.Fatalf("%d endpoints, want %d", len(eps), cfg.Deploy.N)
	}
	var handled uint64
	for i, ep := range eps {
		s := ep.Stats()
		if s.NotForUs != 0 {
			t.Errorf("endpoint %d: NotForUs = %d, want 0", i, s.NotForUs)
		}
		handled += s.DecodeError + s.NotForUs + s.AuthFail + s.Delivered
	}
	if got := res.Metrics.Link.NotForUs; got != 0 {
		t.Errorf("link NotForUs = %d, want 0", got)
	}
	if handled != res.Metrics.Radio.Deliveries || handled == 0 {
		t.Errorf("endpoints handled %d receptions, the medium delivered %d", handled, res.Metrics.Radio.Deliveries)
	}
}
