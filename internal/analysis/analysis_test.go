package analysis

import (
	"math"
	"testing"

	"beaconsec/internal/rng"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// P returns the undetected-attack probability P = (1-p_n)(1-p_w)(1-p_l),
// the oracle StrategyForP is checked against.
func (s Strategy) P() float64 {
	return (1 - s.PN) * (1 - s.PW) * (1 - s.PL)
}

func TestStrategyP(t *testing.T) {
	tests := []struct {
		name string
		s    Strategy
		want float64
	}{
		{"all zero", Strategy{}, 1},
		{"always normal", Strategy{PN: 1}, 0},
		{"half normal", Strategy{PN: 0.5}, 0.5},
		{"mixed", Strategy{PN: 0.5, PW: 0.5, PL: 0.5}, 0.125},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.s.P(); !close(got, tt.want, 1e-12) {
				t.Errorf("P() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestStrategyValidate(t *testing.T) {
	if err := (Strategy{PN: 0.2, PW: 0.3, PL: 0.4}).Validate(); err != nil {
		t.Errorf("valid strategy rejected: %v", err)
	}
	for _, s := range []Strategy{{PN: -0.1}, {PW: 1.1}, {PL: math.NaN()}} {
		if err := s.Validate(); err == nil {
			t.Errorf("invalid strategy %+v accepted", s)
		}
	}
}

func TestStrategyForP(t *testing.T) {
	for _, p := range []float64{0, 0.25, 0.5, 1} {
		s := StrategyForP(p)
		if !close(s.P(), p, 1e-12) {
			t.Errorf("StrategyForP(%v).P() = %v", p, s.P())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("StrategyForP(2) did not panic")
		}
	}()
	StrategyForP(2)
}

func TestDetectionRate(t *testing.T) {
	tests := []struct {
		p    float64
		m    int
		want float64
	}{
		{0, 8, 0},
		{1, 1, 1},
		{0.5, 1, 0.5},
		{0.5, 2, 0.75},
		{0.2, 8, 1 - math.Pow(0.8, 8)},
		{0.3, 0, 0},
	}
	for _, tt := range tests {
		if got := DetectionRate(tt.p, tt.m); !close(got, tt.want, 1e-12) {
			t.Errorf("DetectionRate(%v, %d) = %v, want %v", tt.p, tt.m, got, tt.want)
		}
	}
}

func TestDetectionRateMonotone(t *testing.T) {
	// P_r grows with both P and m (paper: "a benign detecting node can
	// always increase m to have higher detection rate").
	for m := 1; m <= 16; m *= 2 {
		prev := -1.0
		for p := 0.0; p <= 1.0; p += 0.01 {
			pr := DetectionRate(p, m)
			if pr < prev-1e-12 {
				t.Fatalf("P_r not monotone in P at m=%d p=%v", m, p)
			}
			if pr < 0 || pr > 1 {
				t.Fatalf("P_r out of range at m=%d p=%v: %v", m, p, pr)
			}
			prev = pr
		}
	}
	for p := 0.05; p < 1; p += 0.1 {
		if DetectionRate(p, 8) <= DetectionRate(p, 4) {
			t.Fatalf("P_r not increasing in m at p=%v", p)
		}
	}
}

func TestPaperPopulationFraction(t *testing.T) {
	// "we always assume 10% of sensor nodes are benign beacon nodes".
	pop := PaperPopulation()
	frac := float64(pop.BenignBeacons()) / float64(pop.N)
	if !close(frac, 0.1, 1e-12) {
		t.Errorf("benign beacon fraction = %v, want 0.1", frac)
	}
}

func TestBinomPMFAgainstDirect(t *testing.T) {
	// Check log-space computation against direct evaluation for small n.
	choose := func(n, k int) float64 {
		c := 1.0
		for i := 0; i < k; i++ {
			c = c * float64(n-i) / float64(i+1)
		}
		return c
	}
	for n := 0; n <= 12; n++ {
		for k := 0; k <= n; k++ {
			p := 0.3
			want := choose(n, k) * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
			if got := BinomPMF(n, p, k); !close(got, want, 1e-10) {
				t.Fatalf("BinomPMF(%d, %v, %d) = %v, want %v", n, p, k, got, want)
			}
		}
	}
}

func TestBinomPMFEdges(t *testing.T) {
	if got := BinomPMF(10, 0, 0); got != 1 {
		t.Errorf("PMF(10,0,0) = %v", got)
	}
	if got := BinomPMF(10, 0, 1); got != 0 {
		t.Errorf("PMF(10,0,1) = %v", got)
	}
	if got := BinomPMF(10, 1, 10); got != 1 {
		t.Errorf("PMF(10,1,10) = %v", got)
	}
	if got := BinomPMF(10, 0.5, -1); got != 0 {
		t.Errorf("PMF(k=-1) = %v", got)
	}
	if got := BinomPMF(10, 0.5, 11); got != 0 {
		t.Errorf("PMF(k>n) = %v", got)
	}
}

func TestBinomPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 10, 100, 500} {
		for _, p := range []float64{0.01, 0.3, 0.9} {
			sum := 0.0
			for k := 0; k <= n; k++ {
				sum += BinomPMF(n, p, k)
			}
			if !close(sum, 1, 1e-9) {
				t.Errorf("PMF(n=%d, p=%v) sums to %v", n, p, sum)
			}
		}
	}
}

func TestBinomCDFMatchesSimulation(t *testing.T) {
	src := rng.New(3)
	const n, p, trials = 40, 0.25, 200000
	counts := make([]int, n+1)
	for i := 0; i < trials; i++ {
		k := 0
		for j := 0; j < n; j++ {
			if src.Bool(p) {
				k++
			}
		}
		counts[k]++
	}
	cum := 0
	for k := 0; k <= n; k += 4 {
		for j := max(0, k-3); j <= k; j++ {
			cum += counts[j]
		}
		got := BinomCDF(n, p, k)
		want := float64(cum) / trials
		if !close(got, want, 0.01) {
			t.Errorf("CDF(%d) = %v, simulated %v", k, got, want)
		}
	}
}

func TestRevocationRateShape(t *testing.T) {
	pop := PaperPopulation()
	// Monotone increasing in P and N_c, decreasing in τ′ (Figures 6, 7).
	prev := -1.0
	for p := 0.0; p <= 1.0; p += 0.05 {
		pd := RevocationRate(p, 8, 2, 10, pop)
		if pd < prev-1e-12 {
			t.Fatalf("P_d not monotone in P at %v", p)
		}
		if pd < 0 || pd > 1 {
			t.Fatalf("P_d out of range at %v: %v", p, pd)
		}
		prev = pd
	}
	if RevocationRate(0.3, 8, 1, 10, pop) <= RevocationRate(0.3, 8, 4, 10, pop) {
		t.Error("P_d should decrease with larger τ′")
	}
	if RevocationRate(0.3, 8, 2, 20, pop) <= RevocationRate(0.3, 8, 2, 5, pop) {
		t.Error("P_d should increase with more requesting nodes")
	}
	if RevocationRate(0.3, 8, 2, 10, pop) <= RevocationRate(0.3, 2, 2, 10, pop) {
		t.Error("P_d should increase with more detecting IDs")
	}
}

func TestRevocationRateZeroAttack(t *testing.T) {
	if got := RevocationRate(0, 8, 2, 10, PaperPopulation()); got != 0 {
		t.Errorf("P_d at P=0: %v", got)
	}
}

func TestAffectedNodesShape(t *testing.T) {
	pop := PaperPopulation()
	// N' at P=0 is 0; larger m lowers the attacker's best case; larger
	// τ' raises it (Figure 8, at the reconstructed N_c = 100).
	if got := AffectedNodes(0, 8, 2, 100, pop); got != 0 {
		t.Errorf("N'(0) = %v", got)
	}
	m8, _ := MaxAffected(8, 2, 100, pop)
	m4, _ := MaxAffected(4, 2, 100, pop)
	if m8 >= m4 {
		t.Errorf("max N' with m=8 (%v) should be below m=4 (%v)", m8, m4)
	}
	t2, _ := MaxAffected(8, 2, 100, pop)
	t4, _ := MaxAffected(8, 4, 100, pop)
	if t4 <= t2 {
		t.Errorf("max N' with τ'=4 (%v) should exceed τ'=2 (%v)", t4, t2)
	}
}

func TestAffectedNodesSmallInPractice(t *testing.T) {
	// Paper: "in practice, there are only a few non-beacon nodes
	// accepting the malicious beacon signals" — single digits at the
	// paper's parameters.
	pop := PaperPopulation()
	maxN, _ := MaxAffected(8, 2, 100, pop)
	if maxN <= 0 || maxN > 10 {
		t.Errorf("max N' = %v, expected a small positive number", maxN)
	}
}

func TestMaxAffectedRisesPeaksDeclines(t *testing.T) {
	// Figure 9's qualitative shape: N'(N_c) rises sharply, peaks, "then
	// begins to drop quickly and finally remains at certain level".
	pop := PaperPopulation()
	peakNc, peakVal := 0, 0.0
	var last float64
	const maxNc = 250
	for nc := 1; nc <= maxNc; nc += 3 {
		v, _ := MaxAffected(8, 2, nc, pop)
		if v > peakVal {
			peakVal, peakNc = v, nc
		}
		last = v
	}
	if peakNc <= 3 || peakNc >= maxNc-10 {
		t.Errorf("N' peak at boundary N_c = %d; want an interior peak", peakNc)
	}
	if last >= peakVal*0.95 {
		t.Errorf("N' does not decline after the peak: peak %v at %d, final %v", peakVal, peakNc, last)
	}
	if last <= 0 {
		t.Errorf("N' plateau should stay positive, got %v", last)
	}
}

func TestFalsePositiveBound(t *testing.T) {
	// N_f = ((1-p_d) N_w + N_a (τ+1)) / (τ'+1)
	got := FalsePositiveBound(10, 10, 10, 2, 0.9)
	want := (0.1*10 + 10*11) / 3
	if !close(got, want, 1e-9) {
		t.Errorf("N_f = %v, want %v", got, want)
	}
	// Decreasing in τ', increasing in τ (the paper's trade-off).
	if FalsePositiveBound(10, 10, 10, 3, 0.9) >= got {
		t.Error("N_f should fall with larger τ'")
	}
	if FalsePositiveBound(10, 10, 12, 2, 0.9) <= got {
		t.Error("N_f should rise with larger τ")
	}
	if FalsePositiveBound(10, 10, 10, 2, 0.99) >= got {
		t.Error("N_f should fall with better wormhole detector")
	}
}

func defaultReportParams() ReportCounterParams {
	return ReportCounterParams{
		Pop:      PaperPopulation(),
		Nc:       100,
		Nw:       10,
		Pd:       0.9,
		M:        8,
		P:        0.2,
		TauPrime: 2,
		Tau:      10,
	}
}

func TestReportCounterExceedProb(t *testing.T) {
	prm := defaultReportParams()
	// Figure 10: P_o ≈ 0 by τ = 10, and monotone decreasing in τ.
	prev := 2.0
	for tau := 0; tau <= 12; tau++ {
		po := ReportCounterExceedProb(tau, prm)
		if po < 0 || po > 1 {
			t.Fatalf("P_o(%d) = %v out of range", tau, po)
		}
		if po > prev+1e-12 {
			t.Fatalf("P_o not decreasing at τ=%d", tau)
		}
		prev = po
	}
	if po := ReportCounterExceedProb(10, prm); po > 1e-3 {
		t.Errorf("P_o(10) = %v, paper says close to zero", po)
	}
	if po := ReportCounterExceedProb(0, prm); po < 1e-4 {
		t.Errorf("P_o(0) = %v, should be clearly positive", po)
	}
}

func TestReportCounterMoreRequestersDoesNotExplode(t *testing.T) {
	// Paper: "malicious beacon nodes cannot increase this probability by
	// simply having more requesting nodes contact it, since this will
	// increase the chance of being revoked". P_o at N_c=200 stays small.
	prm := defaultReportParams()
	prm.Nc = 400
	if po := ReportCounterExceedProb(10, prm); po > 0.05 {
		t.Errorf("P_o(10) at N_c=200 = %v, want small", po)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
