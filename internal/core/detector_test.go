package core

import (
	"math"
	"slices"
	"strings"
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

// TestVerdictString pins the string form of every verdict plus the
// out-of-range fallback (metrics maps and log lines key on these).
func TestVerdictString(t *testing.T) {
	cases := []struct {
		v    Verdict
		want string
	}{
		{VerdictBenign, "benign"},
		{VerdictMalicious, "malicious"},
		{VerdictWormholeReplay, "wormhole-replay"},
		{VerdictLocalReplay, "local-replay"},
		{Verdict(0), "verdict(0)"},
		{Verdict(99), "verdict(99)"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("Verdict(%d).String() = %q, want %q", int(c.v), got, c.want)
		}
	}
}

// testRTTStats is a plausible calibration for detector construction in
// unit tests: mean/std of the order the simulated radio produces.
func testRTTStats() RTTStats {
	return RTTStats{Mean: 50000, Std: 250, Min: 49200, Max: 50870, Threshold: 50900}
}

// testDetectorConfig is the detection configuration the rivals' unit
// tests build on: ε = 10 ft, the testRTTStats threshold, 150 ft range.
func testDetectorConfig() Config {
	return Config{MaxDistError: 10, MaxRTT: testRTTStats().Threshold, Range: 150}
}

// wantDetectorNames checks that err names every detector NewDetector
// builds.
func wantDetectorNames(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: want error, got nil", what)
		return
	}
	for _, name := range []string{"mahalanobis", "ml", "paper"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("%s: error %q does not list %q", what, err, name)
		}
	}
}

// TestDetectorRegistry pins the closed detector set: DetectorNames lists
// exactly the three detectors, NewDetector builds each under its own
// name (and the paper's for ""), and any other name is an error listing
// the three, the old name{k=v} parameter form included.
func TestDetectorRegistry(t *testing.T) {
	names := DetectorNames()
	if want := []string{"mahalanobis", "ml", "paper"}; !slices.Equal(names, want) {
		t.Fatalf("DetectorNames() = %v, want %v", names, want)
	}
	for _, name := range append(names, "") {
		det, err := NewDetector(name, testDetectorConfig(), testRTTStats)
		if err != nil {
			t.Fatalf("NewDetector(%q): %v", name, err)
		}
		want := name
		if name == "" {
			want = DefaultDetectorName
		}
		if got := det.Name(); got != want {
			t.Errorf("NewDetector(%q).Name() = %q, want %q", name, got, want)
		}
		if err := CheckDetectorName(want); err != nil {
			t.Errorf("CheckDetectorName(%q): %v", want, err)
		}
	}
	for _, name := range []string{"nope", "Paper", " ml", "ml{}", "ml{bias=20}",
		"mahalanobis{threshold=2.5}", "paper,ml"} {
		_, err := NewDetector(name, testDetectorConfig(), testRTTStats)
		wantDetectorNames(t, "NewDetector("+name+")", err)
		wantDetectorNames(t, "CheckDetectorName("+name+")", CheckDetectorName(name))
	}
}

// TestParseDetectorList covers the detector flags' parser: names trimmed
// of space, in order; an empty, unknown, parameterised or repeated entry
// is an error listing the known names.
func TestParseDetectorList(t *testing.T) {
	names, err := ParseDetectorList(" paper,mahalanobis , ml")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"paper", "mahalanobis", "ml"}; !slices.Equal(names, want) {
		t.Errorf("ParseDetectorList = %v, want %v", names, want)
	}
	for _, text := range []string{"", " ", "a,,b", "paper,", "paper,,ml", "bogus", "paper,ml, paper",
		"ml{bias=20,lambda=0.5}", "mahalanobis{threshold=2.5}", "ml{bias=1"} {
		_, err := ParseDetectorList(text)
		wantDetectorNames(t, "ParseDetectorList("+text+")", err)
	}
}

func TestDetectorBuilderErrors(t *testing.T) {
	cases := []struct {
		name, detector string
		cfg            Config
		rtt            func() RTTStats
	}{
		{"mahalanobis missing calibration", "mahalanobis", testDetectorConfig(), nil},
		{"mahalanobis degenerate calibration", "mahalanobis", testDetectorConfig(),
			func() RTTStats { return RTTStats{Mean: 50000} }},
		{"paper invalid config", "paper", Config{MaxDistError: 10, Range: 150}, testRTTStats},
		{"ml invalid config", "ml", Config{MaxRTT: 50900, Range: 150}, testRTTStats},
		{"mahalanobis invalid config", "mahalanobis", Config{MaxDistError: 10, MaxRTT: 50900}, testRTTStats},
	}
	for _, c := range cases {
		if _, err := NewDetector(c.detector, c.cfg, c.rtt); err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		}
	}
}

// TestPaperDetectorMatchesConfig is the byte-identity contract at the
// verdict level: the detector the empty name builds must agree with the
// reference Config pipeline on every observation, detecting-node and
// sensor path alike, and must never ask for an RTT calibration.
func TestPaperDetectorMatchesConfig(t *testing.T) {
	cfg := Config{MaxDistError: 10, MaxRTT: 50900, Range: 150}
	det, err := NewDetector("", cfg, func() RTTStats {
		t.Fatal("the paper detector asked for an RTT calibration")
		return RTTStats{}
	})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(42)
	for i := 0; i < 20000; i++ {
		o := Observation{
			OwnLoc:           geo.Point{X: src.Uniform(0, 500), Y: src.Uniform(0, 500)},
			OwnKnown:         src.Bool(0.8),
			Claimed:          geo.Point{X: src.Uniform(0, 500), Y: src.Uniform(0, 500)},
			MeasuredDist:     src.Uniform(0, 400),
			RTT:              src.Uniform(49000, 52000), // straddles MaxRTT
			WormholeDetected: src.Bool(0.3),
		}
		if got, want := det.EvaluateDetector(o), cfg.EvaluateDetector(o); got != want {
			t.Fatalf("observation %d: detector path %v, reference %v (o=%+v)", i, got, want, o)
		}
		if got, want := det.EvaluateSensor(o), cfg.EvaluateSensor(o); got != want {
			t.Fatalf("observation %d: sensor path %v, reference %v (o=%+v)", i, got, want, o)
		}
	}
}

func TestMahalanobisVerdicts(t *testing.T) {
	det, err := NewDetector("mahalanobis", testDetectorConfig(), testRTTStats)
	if err != nil {
		t.Fatal(err)
	}
	st := testRTTStats()
	base := Observation{
		OwnLoc:       geo.Point{},
		OwnKnown:     true,
		Claimed:      geo.Point{X: 100},
		MeasuredDist: 100,
		RTT:          st.Mean,
	}
	cases := []struct {
		name   string
		mutate func(o *Observation)
		want   Verdict
	}{
		{"on-model exchange", func(o *Observation) {}, VerdictBenign},
		{"enlarged distance", func(o *Observation) { o.MeasuredDist = 130 }, VerdictMalicious},
		{"shrunk distance", func(o *Observation) { o.MeasuredDist = 70 }, VerdictMalicious},
		{"far claim with wormhole evidence", func(o *Observation) {
			o.Claimed = geo.Point{X: 200}
			o.WormholeDetected = true
		}, VerdictWormholeReplay},
		{"far claim without evidence", func(o *Observation) {
			o.Claimed = geo.Point{X: 200}
		}, VerdictMalicious},
		{"late RTT alone", func(o *Observation) { o.RTT = st.Mean + 3.2*st.Std }, VerdictLocalReplay},
		{"sensor path wormhole", func(o *Observation) {
			o.OwnKnown = false
			o.WormholeDetected = true
		}, VerdictWormholeReplay},
		{"sensor path late RTT", func(o *Observation) {
			o.OwnKnown = false
			o.RTT = st.Mean + 3.2*st.Std
		}, VerdictLocalReplay},
		{"sensor path on-model", func(o *Observation) { o.OwnKnown = false }, VerdictBenign},
	}
	for _, c := range cases {
		o := base
		c.mutate(&o)
		if got := det.EvaluateDetector(o); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMLVerdicts(t *testing.T) {
	cfg := testDetectorConfig()
	det, err := NewDetector("ml", cfg, nil) // cut = MLBias·ε/2 = ε = 10
	if err != nil {
		t.Fatal(err)
	}
	base := Observation{
		OwnLoc:       geo.Point{},
		OwnKnown:     true,
		Claimed:      geo.Point{X: 100},
		MeasuredDist: 100,
		RTT:          50000,
	}
	cases := []struct {
		name   string
		mutate func(o *Observation)
		want   Verdict
	}{
		{"below cut", func(o *Observation) { o.MeasuredDist = 109 }, VerdictBenign},
		{"at the cut", func(o *Observation) { o.MeasuredDist = 110 }, VerdictBenign},
		{"just past the cut", func(o *Observation) { o.MeasuredDist = math.Nextafter(110, 111) }, VerdictMalicious},
		{"shrinkage spends no power", func(o *Observation) { o.MeasuredDist = 60 }, VerdictBenign},
		{"above cut", func(o *Observation) { o.MeasuredDist = 111 }, VerdictMalicious},
		{"consistent but replayed", func(o *Observation) {
			o.MeasuredDist = 109
			o.RTT = cfg.MaxRTT + 1
		}, VerdictLocalReplay},
		{"above cut, far claim, wormhole evidence", func(o *Observation) {
			o.Claimed = geo.Point{X: 200}
			o.MeasuredDist = 211
			o.WormholeDetected = true
		}, VerdictWormholeReplay},
		{"above cut and replayed", func(o *Observation) {
			o.MeasuredDist = 111
			o.RTT = cfg.MaxRTT + 1
		}, VerdictLocalReplay},
		{"sensor path is the paper's", func(o *Observation) {
			o.OwnKnown = false
			o.RTT = cfg.MaxRTT + 1
		}, VerdictLocalReplay},
	}
	for _, c := range cases {
		o := base
		c.mutate(&o)
		if got := det.EvaluateDetector(o); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// TestCalibrationStats checks the moment summary against hand-computed
// values on a tiny known sample set.
func TestCalibrationStats(t *testing.T) {
	cal := calibrationFromSamples([]float64{1, 2, 3, 4})
	st := cal.Stats()
	if st.Mean != 2.5 {
		t.Errorf("Mean = %v, want 2.5", st.Mean)
	}
	if want := math.Sqrt(1.25); math.Abs(st.Std-want) > 1e-12 {
		t.Errorf("Std = %v, want %v", st.Std, want)
	}
	if st.Min != 1 || st.Max != 4 {
		t.Errorf("Min/Max = %v/%v, want 1/4", st.Min, st.Max)
	}
	if want := 4 + GuardBand; st.Threshold != want {
		t.Errorf("Threshold = %v, want %v", st.Threshold, want)
	}
	if got := (Calibration{}).Stats(); got != (RTTStats{}) {
		t.Errorf("empty calibration: got %+v, want zero", got)
	}
}
