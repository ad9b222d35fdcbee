package experiment

import (
	"fmt"

	"beaconsec/internal/analysis"
	"beaconsec/internal/harness"
	"beaconsec/internal/scenario"
	"beaconsec/internal/textplot"
)

// ExtraDistributed is extension experiment E4, the paper's §6 future-work
// item made concrete: revocation without a base station. Beacons gossip
// alerts to their beacon neighbors and each runs the §3 counting
// algorithm on a local ledger. The experiment sweeps P and compares the
// centralized detection rate against the distributed variant's local
// revocation coverage, and reports the collusion cost (local framing) the
// base station's global report caps normally prevent.
func ExtraDistributed(o Options) (Result, error) {
	ps := []float64{0.1, 0.2, 0.4, 0.7, 1.0}
	trials := 2
	if o.Quick {
		ps = []float64{0.3, 1.0}
		trials = 1
	}

	// One job runs the centralized and distributed variants on
	// identical seeds (paired), so the curves differ in the revocation
	// architecture, not the topology draw. The centralized run keeps its
	// detection rate and FPR, the distributed one its local coverage and
	// framing.
	rows, _, err := scenarioSweep(o, "extra-distributed", harness.FloatLabels("P", ps), trials,
		func(p int) []scenario.Config {
			cfg := scenario.Paper()
			cfg.Strategy = analysis.StrategyForP(ps[p])
			cfg.Collude = true
			cfg.Wormholes = nil
			cfg.CalibrationTrials = 500
			if o.Quick {
				quickDeploy(&cfg)
			}
			distributed := cfg
			distributed.Distributed = true
			return []scenario.Config{cfg, distributed}
		},
		func(_ harness.Job, cfg scenario.Config, res *scenario.Result) [2]float64 {
			if cfg.Distributed {
				return [2]float64{res.LocalCoverage, res.LocalFalseRevocations}
			}
			return [2]float64{res.DetectionRate, res.FalsePositiveRate}
		})
	if err != nil {
		return Result{}, err
	}

	central := make([]float64, len(ps))
	local := make([]float64, len(ps))
	var centralFP, localFrame float64
	for i, row := range rows {
		for _, job := range row {
			central[i] += job[0][0]
			local[i] += job[1][0]
			centralFP += job[0][1]
			localFrame += job[1][1]
		}
		central[i] /= float64(trials)
		local[i] /= float64(trials)
	}
	centralFP /= float64(len(ps) * trials)
	localFrame /= float64(len(ps) * trials)

	res := Result{
		ID:     "extra-distributed",
		Title:  "E4: centralized revocation vs base-station-free gossip (§6 future work)",
		XLabel: "P",
		YLabel: "detection (centralized) / neighbor coverage (distributed)",
		Series: []textplot.Series{
			{Label: "centralized detection rate", X: ps, Y: central},
			{Label: "distributed local coverage", X: ps, Y: local},
		},
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"collusion cost: centralized FPR %.3f (bounded by report caps) vs %.2f local false revocations per benign ledger",
		centralFP, localFrame))
	res.Notes = append(res.Notes,
		"without the global view, coverage is per-neighborhood and colluders frame locally — why the paper keeps the base station")
	return res, nil
}
