package core

import (
	"testing"

	"beaconsec/internal/geo"
	"beaconsec/internal/rng"
)

func testConfig() Config {
	return Config{MaxDistError: 10, MaxRTT: 15000, Range: 150}
}

func obs(ownKnown bool, own, claimed geo.Point, measured, rtt float64, wh bool) Observation {
	return Observation{
		OwnLoc:           own,
		OwnKnown:         ownKnown,
		Claimed:          claimed,
		MeasuredDist:     measured,
		RTT:              rtt,
		WormholeDetected: wh,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{MaxDistError: 0, MaxRTT: 1, Range: 1},
		{MaxDistError: 1, MaxRTT: 0, Range: 1},
		{MaxDistError: 1, MaxRTT: 1, Range: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSignalMalicious(t *testing.T) {
	c := testConfig()
	own := geo.Point{X: 0, Y: 0}
	tests := []struct {
		name     string
		claimed  geo.Point
		measured float64
		want     bool
	}{
		{"consistent exact", geo.Point{X: 100, Y: 0}, 100, false},
		{"consistent within error", geo.Point{X: 100, Y: 0}, 109, false},
		{"boundary not malicious", geo.Point{X: 100, Y: 0}, 110, false},
		{"just past boundary", geo.Point{X: 100, Y: 0}, 110.5, true},
		{"under-reported distance", geo.Point{X: 100, Y: 0}, 80, true},
		{"false location", geo.Point{X: 300, Y: 0}, 100, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			o := obs(true, own, tt.claimed, tt.measured, 14000, false)
			if got := c.SignalMalicious(o); got != tt.want {
				t.Errorf("SignalMalicious = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSignalMaliciousNeedsOwnLocation(t *testing.T) {
	c := testConfig()
	o := obs(false, geo.Point{}, geo.Point{X: 500, Y: 0}, 10, 14000, false)
	if c.SignalMalicious(o) {
		t.Error("consistency check ran without own location")
	}
}

func TestEvaluateDetector(t *testing.T) {
	c := testConfig()
	own := geo.Point{X: 0, Y: 0}
	tests := []struct {
		name string
		o    Observation
		want Verdict
	}{
		{
			"benign consistent signal",
			obs(true, own, geo.Point{X: 100, Y: 0}, 102, 14000, false),
			VerdictBenign,
		},
		{
			"malicious signal, no excuse",
			obs(true, own, geo.Point{X: 100, Y: 0}, 60, 14000, false),
			VerdictMalicious,
		},
		{
			"wormhole replay: far claim + detector fired",
			obs(true, own, geo.Point{X: 700, Y: 600}, 90, 14000, true),
			VerdictWormholeReplay,
		},
		{
			"far claim but detector silent -> local replay check passes -> malicious",
			obs(true, own, geo.Point{X: 700, Y: 600}, 90, 14000, false),
			VerdictMalicious,
		},
		{
			"near claim + detector fired is NOT a wormhole excuse",
			obs(true, own, geo.Point{X: 100, Y: 0}, 60, 14000, true),
			VerdictMalicious,
		},
		{
			"inconsistent and slow -> local replay",
			obs(true, own, geo.Point{X: 100, Y: 0}, 60, 99999, false),
			VerdictLocalReplay,
		},
		{
			"consistent but slow -> local replay (discarded, no alert)",
			obs(true, own, geo.Point{X: 100, Y: 0}, 100, 99999, false),
			VerdictLocalReplay,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := c.EvaluateDetector(tt.o); got != tt.want {
				t.Errorf("EvaluateDetector = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestEvaluateDetectorWormholeFilterNeedsBothConditions(t *testing.T) {
	// The §2.2.1 filter requires calculated distance > range AND the
	// wormhole detector firing; a malicious neighbor cannot excuse an
	// inconsistent signal by triggering the detector alone (that case
	// stays malicious), and a far claim alone is not an excuse either.
	c := testConfig()
	own := geo.Point{X: 0, Y: 0}
	inRangeClaim := obs(true, own, geo.Point{X: 140, Y: 0}, 60, 14000, true)
	if got := c.EvaluateDetector(inRangeClaim); got != VerdictMalicious {
		t.Errorf("in-range claim with detector fired = %v, want malicious", got)
	}
}

func TestEvaluateSensor(t *testing.T) {
	c := testConfig()
	tests := []struct {
		name string
		o    Observation
		want Verdict
	}{
		{"clean signal accepted", obs(false, geo.Point{}, geo.Point{X: 1, Y: 1}, 50, 14000, false), VerdictBenign},
		{"wormhole detected", obs(false, geo.Point{}, geo.Point{X: 1, Y: 1}, 50, 14000, true), VerdictWormholeReplay},
		{"slow signal", obs(false, geo.Point{}, geo.Point{X: 1, Y: 1}, 50, 99999, false), VerdictLocalReplay},
		{"wormhole wins over slow", obs(false, geo.Point{}, geo.Point{X: 1, Y: 1}, 50, 99999, true), VerdictWormholeReplay},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := c.EvaluateSensor(tt.o); got != tt.want {
				t.Errorf("EvaluateSensor = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestVerdictHelpers(t *testing.T) {
	if !VerdictBenign.Accepted() || VerdictMalicious.Accepted() ||
		VerdictWormholeReplay.Accepted() || VerdictLocalReplay.Accepted() {
		t.Error("Accepted() wrong")
	}
	if !VerdictMalicious.Alertable() || VerdictBenign.Alertable() ||
		VerdictWormholeReplay.Alertable() || VerdictLocalReplay.Alertable() {
		t.Error("Alertable() wrong")
	}
	for _, v := range []Verdict{VerdictBenign, VerdictMalicious, VerdictWormholeReplay, VerdictLocalReplay} {
		if v.String() == "" {
			t.Errorf("empty String for %d", v)
		}
	}
	if Verdict(0).String() != "verdict(0)" {
		t.Errorf("zero verdict String = %q", Verdict(0).String())
	}
}

// TestDetectorNeverAccusesConsistentAttacker encodes the paper's §2.1
// argument: a compromised beacon whose signals stay consistent is
// "equivalent to a benign beacon node located at the declared position" —
// it must never be flagged, for any requester position.
func TestDetectorNeverAccusesConsistentAttacker(t *testing.T) {
	c := testConfig()
	src := rng.New(7)
	for i := 0; i < 2000; i++ {
		own := geo.Point{X: src.Uniform(0, 1000), Y: src.Uniform(0, 1000)}
		claimed := geo.Point{X: src.Uniform(0, 1000), Y: src.Uniform(0, 1000)}
		measured := own.Dist(claimed) + src.Uniform(-c.MaxDistError, c.MaxDistError)
		o := obs(true, own, claimed, measured, 14000, false)
		if v := c.EvaluateDetector(o); v != VerdictBenign {
			t.Fatalf("consistent signal flagged %v (own %v claimed %v measured %v)",
				v, own, claimed, measured)
		}
	}
}
