package experiment

// Statistical regression suite: seeded simulation sweeps are pinned to
// the closed forms in internal/analysis within tolerance bands sized
// from the binomial noise of the sample. The suite guards the
// end-to-end stack (phy timing, MAC, detectors, revocation) against
// regressions that shift the measured rates away from theory — the
// paper's own validation ("the result conforms to the theoretical
// analysis", Figures 12–13).
//
// All tests are named TestRegression* so CI can run exactly this tier
// with `go test -run TestRegression ./internal/experiment/`. Seeds are
// fixed: a failure is a code change, not bad luck.

import (
	"math"
	"testing"

	"beaconsec/internal/analysis"
	"beaconsec/internal/scenario"
)

// regTrials picks the per-point trial count: enough for a ~4σ band at
// full fidelity, fewer under -short where the band widens accordingly.
func regTrials() int {
	if testing.Short() {
		return 3
	}
	return 8
}

// regSweep runs a quick-scale no-collusion sweep over the given P grid.
func regSweep(t *testing.T, label string, ps []float64, trials int) []pointMean {
	t.Helper()
	o := Options{Quick: true, Seed: 7}
	sims, _, err := simSweep(o, label, ps, trials, func(c *scenario.Config) { c.Collude = false })
	if err != nil {
		t.Fatal(err)
	}
	return sims
}

// detTolerance is a 4σ binomial band plus a model-mismatch margin: the
// measured detection rate averages n = Na × trials Bernoulli
// revocations with variance th(1-th), and theory itself is evaluated at
// the measured Nc rather than the closed-form average.
func detTolerance(th float64, nSamples int) float64 {
	v := th * (1 - th)
	if v < 0.05 { // keep a sane floor when theory saturates near 0 or 1
		v = 0.05
	}
	return 0.12 + 4*math.Sqrt(v/float64(nSamples))
}

// TestRegressionDetectionRateTracksTheory pins the fig12 relationship:
// the simulated revocation detection rate at each P must land within a
// noise-sized band of analysis.RevocationRate evaluated at the measured
// requester count.
func TestRegressionDetectionRateTracksTheory(t *testing.T) {
	ps := []float64{0.1, 0.2, 0.4}
	trials := regTrials()
	sims := regSweep(t, "regression-detection", ps, trials)
	for i, p := range ps {
		s := sims[i]
		th := analysis.RevocationRate(p, 8, 2, int(math.Round(s.AvgNc)), s.Population)
		tol := detTolerance(th, s.Population.Na*trials)
		d := s.DetectionRate - th
		t.Logf("P=%.2f: sim %.3f theory %.3f (Nc=%.1f, tol %.3f)", p, s.DetectionRate, th, s.AvgNc, tol)
		if math.Abs(d) > tol {
			t.Errorf("P=%.2f: detection rate %.3f vs theory %.3f exceeds tolerance %.3f",
				p, s.DetectionRate, th, tol)
		}
	}
}

// TestRegressionFalsePositiveRateBounded pins the defense's false-
// positive behavior: without colluding reporters, benign beacons are
// revoked only through wormhole-induced false alerts that slip past the
// p_d = 0.9 wormhole filter and the report cap, so the measured FPR
// must stay small at every P.
func TestRegressionFalsePositiveRateBounded(t *testing.T) {
	ps := []float64{0.1, 0.4}
	trials := regTrials()
	sims := regSweep(t, "regression-fpr", ps, trials)
	for i, p := range ps {
		s := sims[i]
		t.Logf("P=%.2f: FPR %.4f (benign alerts %.1f, true alerts %.1f)",
			p, s.FalsePositiveRate, s.BenignAlerts, s.TrueAlerts)
		if s.FalsePositiveRate > 0.15 {
			t.Errorf("P=%.2f: false-positive rate %.3f above bound 0.15", p, s.FalsePositiveRate)
		}
	}
}

// TestRegressionAffectedNodesTracksTheory pins the fig13 relationship:
// the measured N' (sensors misled per surviving malicious beacon) must
// track analysis.AffectedNodes within a band scaled to the prediction.
func TestRegressionAffectedNodesTracksTheory(t *testing.T) {
	ps := []float64{0.1, 0.2, 0.4}
	trials := regTrials()
	sims := regSweep(t, "regression-affected", ps, trials)
	for i, p := range ps {
		s := sims[i]
		th := analysis.AffectedNodes(p, 8, 2, int(math.Round(s.AvgNc)), s.Population)
		// N' is a small count with trial variance of the same order as
		// its mean; bound the gap by half the prediction plus a floor.
		tol := 2.0 + 0.5*th
		d := s.AffectedPerMalicious - th
		t.Logf("P=%.2f: sim N'=%.2f theory %.2f (tol %.2f)", p, s.AffectedPerMalicious, th, tol)
		if math.Abs(d) > tol {
			t.Errorf("P=%.2f: affected nodes %.2f vs theory %.2f exceeds tolerance %.2f",
				p, s.AffectedPerMalicious, th, tol)
		}
	}
}

// TestRegressionDetectionMonotoneInP pins the qualitative fig5/fig12
// shape: a larger attack probability P exposes the attacker more, so
// the closed-form detection rate is non-decreasing in P, and the
// simulation must not invert the trend beyond noise between the grid's
// endpoints.
func TestRegressionDetectionMonotoneInP(t *testing.T) {
	ps := []float64{0.1, 0.5}
	trials := regTrials()
	sims := regSweep(t, "regression-monotone", ps, trials)
	lo, hi := sims[0], sims[len(sims)-1]
	tol := detTolerance(lo.DetectionRate, lo.Population.Na*trials)
	t.Logf("P=%.2f: %.3f, P=%.2f: %.3f", ps[0], lo.DetectionRate, ps[1], hi.DetectionRate)
	if lo.DetectionRate > hi.DetectionRate+tol {
		t.Errorf("detection rate fell from %.3f to %.3f as P rose %v -> %v",
			lo.DetectionRate, hi.DetectionRate, ps[0], ps[1])
	}
}
