package experiment

import (
	"fmt"
	"math"

	"beaconsec/internal/analysis"
	"beaconsec/internal/core"
	"beaconsec/internal/scenario"
	"beaconsec/internal/textplot"
)

// bakeoffAttack is one attacker profile of the bake-off grid.
type bakeoffAttack struct {
	label string
	// bias is the attack signal's distance enlargement in feet; zero
	// selects the node-layer default (5·ε_max).
	bias float64
}

// bakeoffAttacks is the attacker axis: the paper's blatant 5ε
// enlargement, which every detector catches with certainty, and a subtle
// 1.5ε enlargement that stays inside the per-requester always-catch
// region and separates the detectors' decision boundaries.
func bakeoffAttacks() []bakeoffAttack {
	return []bakeoffAttack{
		{label: "blatant", bias: 0},
		{label: "subtle", bias: 15},
	}
}

// bakeoffCatchProb is the closed-form per-exchange catch probability of
// the named detector, at its fixed parameters, against an attack signal
// with the given enlargement. The name has passed scenario validation,
// so it is one of core.DetectorNames or the paper's "".
func bakeoffCatchProb(name string, bias, eps float64) float64 {
	switch name {
	case "ml":
		// λ = 0: the detector's priors are equal.
		return analysis.MLCatchProb(bias, eps, analysis.MLCut(core.MLBias*eps, 0, eps))
	case "mahalanobis":
		return analysis.MahalanobisFlagProb(bias, eps, core.MahalanobisThreshold)
	}
	return analysis.PaperCatchProb(bias, eps)
}

// ExtraBakeoff is extension experiment E7: the detector bake-off. Every
// detector of the grid runs the no-collusion revocation scenario over
// the same P grid under two attacker profiles, with common random
// numbers: the sweeps share one label per attacker profile, so the
// harness derives identical job seeds — identical deployments, attacker
// choices, and noise draws — for every detector, and curve differences
// are pure detector effects. Each config names its detector, so the
// detector is in every cache key and memoized trials never cross
// detectors.
func ExtraBakeoff(o Options) (Result, error) {
	dets := o.Detectors
	if len(dets) == 0 {
		dets = core.DetectorNames()
	}
	ps := []float64{0.05, 0.1, 0.2, 0.3, 0.5}
	trials := 2
	if o.Quick {
		ps = []float64{0.1, 0.3}
		trials = 1
	}
	res := Result{
		ID:     "extra-bakeoff",
		Title:  "E7: detector bake-off — revocation detection rate vs P (common random numbers)",
		XLabel: "P",
		YLabel: "detection rate",
	}
	rm := &RunMetrics{}
	const eps = scenario.MaxDistError
	for _, attack := range bakeoffAttacks() {
		attack := attack
		for _, det := range dets {
			det := det
			sims, sweepRM, err := simSweep(o, "bakeoff-"+attack.label, ps, trials,
				func(c *scenario.Config) {
					c.Collude = false
					c.Detector = det
					c.AttackBias = attack.bias
				})
			if err != nil {
				return Result{}, fmt.Errorf("bakeoff %s/%s: %w", det, attack.label, err)
			}
			rm.Scenario.Merge(sweepRM.Scenario)
			rm.Timing.Merge(sweepRM.Timing)

			simY := make([]float64, len(ps))
			var fpr, benignAlerts float64
			for i, s := range sims {
				simY[i] = s.DetectionRate
				fpr += s.FalsePositiveRate
				benignAlerts += s.BenignAlerts
			}
			fpr /= float64(len(sims))
			benignAlerts /= float64(len(sims))
			res.Series = append(res.Series, textplot.Series{
				Label: fmt.Sprintf("%s/%s", det, attack.label),
				X:     ps, Y: simY,
			})

			bias := attack.bias
			if bias == 0 {
				bias = 5 * eps // the node-layer default enlargement
			}
			catch := bakeoffCatchProb(det, bias, eps)
			last := len(ps) - 1
			th := analysis.RevocationRate(ps[last]*catch, 8, 2,
				int(math.Round(sims[last].AvgNc)), sims[last].Population)
			res.Notes = append(res.Notes, fmt.Sprintf(
				"%s/%s: catch/exchange %.3f; at P=%.2f sim %.3f vs theory %.3f; mean FPR %.4f (benign alerts %.1f/run)",
				det, attack.label, catch, ps[last], simY[last], th, fpr, benignAlerts))
		}
	}
	res.Metrics = rm
	res.Notes = append(res.Notes,
		"all detectors see identical deployments and attacker behavior per point (shared sweep labels => common random numbers)",
		"the paper's 5-epsilon attack is caught by every detector; the subtle 1.5-epsilon attack separates the decision boundaries")
	return res, nil
}
