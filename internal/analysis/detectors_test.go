package analysis

import (
	"math"
	"testing"

	"beaconsec/internal/core"
	"beaconsec/internal/geo"
	"beaconsec/internal/rng"
)

func TestIrwinHall4CDF(t *testing.T) {
	if got := IrwinHall4CDF(-1); got != 0 {
		t.Errorf("F(-1) = %v, want 0", got)
	}
	if got := IrwinHall4CDF(5); got != 1 {
		t.Errorf("F(5) = %v, want 1", got)
	}
	if got, want := IrwinHall4CDF(1), 1.0/24; math.Abs(got-want) > 1e-12 {
		t.Errorf("F(1) = %v, want %v", got, want)
	}
	if got := IrwinHall4CDF(2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("F(2) = %v, want 0.5 (symmetry)", got)
	}
	// Symmetry about 2 and monotonicity over the support.
	prev := 0.0
	for x := 0.0; x <= 4.0; x += 0.05 {
		f := IrwinHall4CDF(x)
		if f < prev-1e-12 {
			t.Fatalf("F not monotone at %v: %v < %v", x, f, prev)
		}
		prev = f
		if mirror := 1 - IrwinHall4CDF(4-x); math.Abs(f-mirror) > 1e-12 {
			t.Errorf("symmetry broken at %v: F(x)=%v, 1-F(4-x)=%v", x, f, mirror)
		}
	}
}

func TestPaperCatchProb(t *testing.T) {
	cases := []struct{ bias, eps, want float64 }{
		{0, 10, 0},
		{10, 10, 0.5},
		{15, 10, 0.75},
		{20, 10, 1},
		{50, 10, 1},
		{-15, 10, 0.75}, // shrinkage is caught symmetrically
	}
	for _, c := range cases {
		if got := PaperCatchProb(c.bias, c.eps); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("PaperCatchProb(%v, %v) = %v, want %v", c.bias, c.eps, got, c.want)
		}
	}
}

func TestMLClosedForms(t *testing.T) {
	if got := MLCut(20, 0, 10); got != 10 {
		t.Errorf("MLCut(20,0,10) = %v, want 10 (midway between hypothesis means)", got)
	}
	// λ=3 shifts the cut by λσ²/bias = 3·(100/3)/20 = 5.
	if got := MLCut(20, 3, 10); math.Abs(got-15) > 1e-12 {
		t.Errorf("MLCut(20,3,10) = %v, want 15", got)
	}
	if got := MLCatchProb(15, 10, 10); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("MLCatchProb(15,10,10) = %v, want 0.75", got)
	}
	if got := MLCatchProb(0, 10, 25); got != 0 {
		t.Errorf("catch probability must clamp at 0, got %v", got)
	}
	if got := MLCatchProb(100, 10, 10); got != 1 {
		t.Errorf("catch probability must clamp at 1, got %v", got)
	}
}

// TestDetectorRatesMatchClosedForms Monte-Carlo-validates the closed
// forms against the actual detector implementations under the
// simulator's noise model: ranging error Uniform(-ε, ε) and RTT jitter
// with a standardized Irwin-Hall(4) residual. The empirical
// malicious-verdict rate of each detector must sit inside a 6σ binomial
// band around its closed form.
func TestDetectorRatesMatchClosedForms(t *testing.T) {
	const (
		eps     = 10.0
		rttMean = 50000.0
		rttStd  = 250.0
		samples = 200000
	)
	// Threshold above the maximum possible jitter draw (q ≤ 2√3), so
	// the paper's and the ML detector's RTT filter never fires and the
	// measured rates isolate the consistency decision.
	st := core.RTTStats{Mean: rttMean, Std: rttStd,
		Min: rttMean - 2*math.Sqrt(3)*rttStd, Max: rttMean + 2*math.Sqrt(3)*rttStd,
		Threshold: rttMean + 2*math.Sqrt(3)*rttStd + 30}
	cfg := core.Config{MaxDistError: eps, MaxRTT: st.Threshold, Range: 150}
	dets := make(map[string]core.Detector)
	for _, name := range core.DetectorNames() {
		d, err := core.NewDetector(name, cfg, func() core.RTTStats { return st })
		if err != nil {
			t.Fatal(err)
		}
		dets[name] = d
	}

	expect := func(name string, bias float64) float64 {
		switch name {
		case "paper":
			return PaperCatchProb(bias, eps)
		case "ml":
			return MLCatchProb(bias, eps, MLCut(core.MLBias*eps, 0, eps))
		default:
			return MahalanobisFlagProb(bias, eps, core.MahalanobisThreshold)
		}
	}

	src := rng.New(7)
	for _, bias := range []float64{0, 15} {
		flagged := map[string]int{}
		for i := 0; i < samples; i++ {
			u := src.Uniform(-eps, eps)
			w := src.Float64() + src.Float64() + src.Float64() + src.Float64()
			o := core.Observation{
				OwnLoc:       geo.Point{},
				OwnKnown:     true,
				Claimed:      geo.Point{X: 100},
				MeasuredDist: 100 + u + bias,
				RTT:          rttMean + rttStd*math.Sqrt(3)*(w-2),
			}
			for name, d := range dets {
				if d.EvaluateDetector(o) == core.VerdictMalicious {
					flagged[name]++
				}
			}
		}
		for name := range dets {
			want := expect(name, bias)
			got := float64(flagged[name]) / samples
			band := 6*math.Sqrt(want*(1-want)/samples) + 1e-3
			if math.Abs(got-want) > band {
				t.Errorf("bias=%v %s: measured rate %.5f vs closed form %.5f (band %.5f)",
					bias, name, got, want, band)
			}
		}
	}
}
