package experiment

import (
	"math"
	"testing"

	"beaconsec/internal/analysis"
	"beaconsec/internal/scenario"
)

// TestBakeoffQuickShape checks the quick bake-off produces one series
// per detector × attacker profile, labeled by name, with the
// per-detector verdict counters split out in the merged metrics.
func TestBakeoffQuickShape(t *testing.T) {
	res := mustRun(t, ExtraBakeoff, Options{Quick: true, Seed: 1,
		Detectors: []string{"paper", "ml"}})
	if len(res.Series) != 4 {
		t.Fatalf("got %d series, want 4 (2 detectors x 2 attacks)", len(res.Series))
	}
	wantLabels := map[string]bool{
		"paper/blatant": true, "paper/subtle": true,
		"ml/blatant": true, "ml/subtle": true,
	}
	for _, s := range res.Series {
		if !wantLabels[s.Label] {
			t.Errorf("unexpected series label %q", s.Label)
		}
	}
	if res.Metrics == nil {
		t.Fatal("bake-off carried no metrics")
	}
	for _, det := range []string{"paper", "ml"} {
		if _, ok := res.Metrics.Scenario.Detectors[det]; !ok {
			t.Errorf("merged metrics missing per-detector counters for %q (have %v)",
				det, res.Metrics.Scenario.Detectors)
		}
	}
}

// TestBakeoffCacheIsolationAcrossDetectors is the stale-key test for the
// versioned cache key: trials memoized under one detector's key must
// never be served to a sweep running a different detector, even though
// the two sweeps share labels (and therefore seeds) for common random
// numbers.
func TestBakeoffCacheIsolationAcrossDetectors(t *testing.T) {
	c := testCache(t)
	opts := func(name string) Options {
		return Options{Quick: true, Seed: 1, Cache: c, Detectors: []string{name}}
	}

	cold := mustRun(t, ExtraBakeoff, opts("paper"))
	tm := cold.Metrics.Timing
	if tm.CacheMisses != uint64(tm.Jobs) || tm.CacheHits != 0 {
		t.Fatalf("cold paper run: hits %d misses %d over %d jobs",
			tm.CacheHits, tm.CacheMisses, tm.Jobs)
	}

	// Same seeds, same labels, different detector: every trial must
	// recompute.
	other := mustRun(t, ExtraBakeoff, opts("ml"))
	tm = other.Metrics.Timing
	if tm.CacheHits != 0 {
		t.Fatalf("ml sweep replayed %d of the paper detector's trials", tm.CacheHits)
	}

	// And the paper entries are still intact: a re-run replays fully.
	warm := mustRun(t, ExtraBakeoff, opts("paper"))
	tm = warm.Metrics.Timing
	if tm.CacheMisses != 0 || tm.CacheHits != uint64(tm.Jobs) {
		t.Fatalf("warm paper run: hits %d misses %d over %d jobs",
			tm.CacheHits, tm.CacheMisses, tm.Jobs)
	}
}

// TestBakeoffCommonRandomNumbers pins the CRN mechanism: two sweeps
// sharing a label see identical deployments and exchange schedules
// regardless of the detector, so the deployment-side measurements agree
// exactly and curve differences are pure detector effects.
func TestBakeoffCommonRandomNumbers(t *testing.T) {
	o := Options{Quick: true, Seed: 5}
	sweep := func(name string) pointMean {
		sims, _, err := simSweep(o, "crn-evidence", []float64{0.3}, 2,
			func(c *scenario.Config) {
				c.Collude = false
				c.Detector = name
			})
		if err != nil {
			t.Fatal(err)
		}
		return sims[0]
	}
	paper := sweep("")
	ml := sweep("ml")
	if paper.Population != ml.Population {
		t.Errorf("populations diverged: %+v vs %+v", paper.Population, ml.Population)
	}
	if paper.AvgNc != ml.AvgNc {
		t.Errorf("AvgNc diverged across detectors on a shared label: %v vs %v — seeds are not common",
			paper.AvgNc, ml.AvgNc)
	}
}

// TestMeanScenarioKeepsFractionalAlerts pins the per-point alert mean
// to the exact trial mean: two trials with 6 and 47 benign alerts
// average to 26.5, not the 26 an integer mean truncates to (the
// bake-off notes report this mean).
func TestMeanScenarioKeepsFractionalAlerts(t *testing.T) {
	m := meanScenario([]*scenario.Result{
		{BenignAlerts: 6, TrueAlerts: 3},
		{BenignAlerts: 47, TrueAlerts: 4},
	})
	if m.BenignAlerts != 26.5 || m.TrueAlerts != 3.5 {
		t.Errorf("alert means = %v benign, %v true; want 26.5, 3.5", m.BenignAlerts, m.TrueAlerts)
	}
}

// TestRegressionBakeoffSubtleAttackTracksTheory pins each detector's
// measured revocation rate under the subtle 1.5ε attack to
// analysis.RevocationRate evaluated at the effective per-exchange
// probability P·catch, with catch from the detector's closed form —
// the bake-off's analog of the fig12 sim-vs-theory contract.
func TestRegressionBakeoffSubtleAttackTracksTheory(t *testing.T) {
	const p, bias = 0.5, 15.0
	const eps = scenario.MaxDistError
	trials := regTrials()
	o := Options{Quick: true, Seed: 7}
	for _, name := range []string{"", "ml", "mahalanobis"} {
		sims, _, err := simSweep(o, "regression-bakeoff", []float64{p}, trials,
			func(c *scenario.Config) {
				c.Collude = false
				c.Detector = name
				c.AttackBias = bias
			})
		if err != nil {
			t.Fatal(err)
		}
		s := sims[0]
		catch := bakeoffCatchProb(name, bias, eps)
		th := analysis.RevocationRate(p*catch, 8, 2, int(math.Round(s.AvgNc)), s.Population)
		tol := detTolerance(th, s.Population.Na*trials)
		t.Logf("%s: catch %.3f sim %.3f theory %.3f (tol %.3f)",
			s.Detector, catch, s.DetectionRate, th, tol)
		if math.Abs(s.DetectionRate-th) > tol {
			t.Errorf("%s: detection rate %.3f vs theory %.3f exceeds tolerance %.3f",
				s.Detector, s.DetectionRate, th, tol)
		}
	}
}
