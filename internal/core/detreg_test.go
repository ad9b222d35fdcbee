package core

import (
	"math"
	"strings"
	"testing"

	"beaconsec/internal/geo"
	"beaconsec/internal/rng"
)

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

func TestDetectorSpecCanonical(t *testing.T) {
	cases := []struct {
		spec DetectorSpec
		want string
	}{
		{DetectorSpec{}, "paper"},
		{DetectorSpec{Name: "paper"}, "paper"},
		{DetectorSpec{Name: "ml", Params: map[string]float64{"lambda": 0.5, "bias": 20}},
			"ml{bias=20,lambda=0.5}"},
		{DetectorSpec{Name: "mahalanobis", Params: map[string]float64{"threshold": 2.5}},
			"mahalanobis{threshold=2.5}"},
	}
	for _, c := range cases {
		if got := c.spec.Canonical(); got != c.want {
			t.Errorf("Canonical(%+v) = %q, want %q", c.spec, got, c.want)
		}
	}
}

func TestParseDetectorSpec(t *testing.T) {
	valid := []struct {
		text, canonical string
	}{
		{"paper", "paper"},
		{" ml ", "ml"},
		{"ml{}", "ml"},
		{"ml{bias=20}", "ml{bias=20}"},
		{"mahalanobis{threshold=2.5}", "mahalanobis{threshold=2.5}"},
		{"ml{lambda=0.5, bias=20}", "ml{bias=20,lambda=0.5}"},
	}
	for _, c := range valid {
		spec, err := ParseDetectorSpec(c.text)
		if err != nil {
			t.Errorf("ParseDetectorSpec(%q): %v", c.text, err)
			continue
		}
		if got := spec.Canonical(); got != c.canonical {
			t.Errorf("ParseDetectorSpec(%q).Canonical() = %q, want %q", c.text, got, c.canonical)
		}
	}
	invalid := []string{
		"",                  // empty name
		"Paper",             // uppercase
		"ml{bias=20",        // unterminated brace
		"ml{bias}",          // not k=v
		"ml{bias=x}",        // non-numeric value
		"ml{bias=1,bias=2}", // duplicate parameter
		"ml{Bias=1}",        // malformed parameter name
	}
	for _, text := range invalid {
		if _, err := ParseDetectorSpec(text); err == nil {
			t.Errorf("ParseDetectorSpec(%q): want error, got nil", text)
		}
	}
}

func TestParseDetectorList(t *testing.T) {
	specs, err := ParseDetectorList("paper,mahalanobis{threshold=2.5},ml{bias=20,lambda=0.5}")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"paper", "mahalanobis{threshold=2.5}", "ml{bias=20,lambda=0.5}"}
	if len(specs) != len(want) {
		t.Fatalf("got %d specs, want %d", len(specs), len(want))
	}
	for i, w := range want {
		if got := specs[i].Canonical(); got != w {
			t.Errorf("specs[%d] = %q, want %q", i, got, w)
		}
	}
	for _, text := range []string{"", "a,,b", "ml{bias=1", "ml}", "paper,"} {
		if _, err := ParseDetectorList(text); err == nil {
			t.Errorf("ParseDetectorList(%q): want error, got nil", text)
		}
	}
}

// FuzzDetectorSpecCanonical checks the canonical encoding is a fixed
// point of the parser: any input the parser accepts re-parses from its
// canonical form to the same canonical form, and validates. This is the
// property the cache keys on — two equal-Canonical specs must be the
// same detector.
func FuzzDetectorSpecCanonical(f *testing.F) {
	f.Add("paper")
	f.Add("mahalanobis{threshold=2.5}")
	f.Add("ml{bias=20,lambda=0.5}")
	f.Add("a{b=1e-9,c=-3.25}")
	f.Add("x{y=0,z=-0}")
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := ParseDetectorSpec(text)
		if err != nil {
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("parsed spec %q fails Validate: %v", text, verr)
		}
		c := spec.Canonical()
		spec2, err := ParseDetectorSpec(c)
		if err != nil {
			t.Fatalf("canonical %q of %q does not re-parse: %v", c, text, err)
		}
		if c2 := spec2.Canonical(); c2 != c {
			t.Fatalf("canonical is not a fixed point: %q -> %q", c, c2)
		}
	})
}

func TestDetectorRegistry(t *testing.T) {
	names := DetectorNames()
	for _, want := range []string{"mahalanobis", "ml", "paper"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("DetectorNames() = %v: missing %q", names, want)
		}
	}
	if !DetectorRegistered("") {
		t.Error("empty name must resolve to the default detector")
	}
	if DetectorRegistered("nope") {
		t.Error("unregistered name reported as registered")
	}
	_, err := NewDetector(DetectorSpec{Name: "nope"}, DetectorEnv{})
	if err == nil || !strings.Contains(err.Error(), "paper") {
		t.Errorf("unknown-detector error should list registered names, got %v", err)
	}
}

// testRTTStats is a plausible calibration for detector construction in
// unit tests: mean/std of the order the simulated radio produces.
func testRTTStats() RTTStats {
	return RTTStats{Mean: 50000, Std: 250, Min: 49200, Max: 50870, Threshold: 50900}
}

func testDetectorEnv() DetectorEnv {
	st := testRTTStats()
	return DetectorEnv{
		MaxDistError: 10,
		MaxRTT:       st.Threshold,
		Range:        150,
		RTT:          func() RTTStats { return st },
	}
}

func TestDetectorBuilderErrors(t *testing.T) {
	env := testDetectorEnv()
	cases := []struct {
		name string
		spec DetectorSpec
		env  DetectorEnv
	}{
		{"paper rejects params", DetectorSpec{Name: "paper", Params: map[string]float64{"x": 1}}, env},
		{"mahalanobis unknown param", DetectorSpec{Name: "mahalanobis", Params: map[string]float64{"cutoff": 3}}, env},
		{"mahalanobis non-positive threshold", DetectorSpec{Name: "mahalanobis", Params: map[string]float64{"threshold": 0}}, env},
		{"mahalanobis missing calibration", DetectorSpec{Name: "mahalanobis"},
			DetectorEnv{MaxDistError: 10, MaxRTT: 50900, Range: 150}},
		{"mahalanobis degenerate calibration", DetectorSpec{Name: "mahalanobis"},
			DetectorEnv{MaxDistError: 10, MaxRTT: 50900, Range: 150, RTT: func() RTTStats { return RTTStats{Mean: 50000} }}},
		{"ml non-positive bias", DetectorSpec{Name: "ml", Params: map[string]float64{"bias": -1}}, env},
		{"ml unknown param", DetectorSpec{Name: "ml", Params: map[string]float64{"mu": 1}}, env},
	}
	for _, c := range cases {
		if _, err := NewDetector(c.spec, c.env); err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		}
	}
}

// TestPaperDetectorMatchesConfig is the byte-identity contract at the
// verdict level: the registered "paper" detector must agree with the
// reference Config pipeline on every observation, detecting-node and
// sensor path alike.
func TestPaperDetectorMatchesConfig(t *testing.T) {
	cfg := Config{MaxDistError: 10, MaxRTT: 50900, Range: 150}
	det, err := NewDetector(DetectorSpec{}, DetectorEnv{
		MaxDistError: cfg.MaxDistError, MaxRTT: cfg.MaxRTT, Range: cfg.Range,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := det.Spec().Canonical(); got != DefaultDetectorName {
		t.Fatalf("zero spec resolved to %q, want %q", got, DefaultDetectorName)
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
	det, err := NewDetector(DetectorSpec{Name: "mahalanobis"}, testDetectorEnv())
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
	env := testDetectorEnv()
	det, err := NewDetector(DetectorSpec{Name: "ml"}, env) // cut = bias/2 = ε = 10
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
		{"shrinkage spends no power", func(o *Observation) { o.MeasuredDist = 60 }, VerdictBenign},
		{"above cut", func(o *Observation) { o.MeasuredDist = 111 }, VerdictMalicious},
		{"consistent but replayed", func(o *Observation) {
			o.MeasuredDist = 109
			o.RTT = env.MaxRTT + 1
		}, VerdictLocalReplay},
		{"above cut, far claim, wormhole evidence", func(o *Observation) {
			o.Claimed = geo.Point{X: 200}
			o.MeasuredDist = 211
			o.WormholeDetected = true
		}, VerdictWormholeReplay},
		{"above cut and replayed", func(o *Observation) {
			o.MeasuredDist = 111
			o.RTT = env.MaxRTT + 1
		}, VerdictLocalReplay},
	}
	for _, c := range cases {
		o := base
		c.mutate(&o)
		if got := det.EvaluateDetector(o); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}

	// λ shifts the cut: with λ=3, cut = 10 + 3·(100/3)/20 = 15, so a
	// residual of 11 is now accepted.
	shifted, err := NewDetector(DetectorSpec{Name: "ml",
		Params: map[string]float64{"bias": 20, "lambda": 3}}, env)
	if err != nil {
		t.Fatal(err)
	}
	o := base
	o.MeasuredDist = 111
	if got := shifted.EvaluateDetector(o); got != VerdictBenign {
		t.Errorf("lambda-shifted cut: got %v, want benign", got)
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
