package experiment

import (
	"context"
	"fmt"
	"strings"

	"beaconsec/internal/analysis"
	"beaconsec/internal/core"
	"beaconsec/internal/geo"
	"beaconsec/internal/harness"
	"beaconsec/internal/phy"
	"beaconsec/internal/revoke"
	"beaconsec/internal/scenario"
	"beaconsec/internal/textplot"
)

// fig4Quantiles are the RTT quantiles Figure 4's notes list: x_min, the
// tails, the quartiles, the median and x_max.
var fig4Quantiles = []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}

// Fig4 regenerates Figure 4: the empirical CDF of the no-attack RTT,
// measured over 10,000 request/reply exchanges (500 in quick mode), with
// the x_min / x_max / spread headline values and a quantile table.
func Fig4(o Options) (Result, error) {
	trials := 10000
	if o.Quick {
		trials = 500
	}
	cal, err := core.CalibrateRTT(trials, o.Seed, o.Workers)
	if err != nil {
		return Result{}, err
	}
	var xs, ys []float64
	const points = 120
	span := cal.XMax() - cal.XMin()
	for i := 0; i <= points; i++ {
		x := cal.XMin() + span*float64(i)/points
		xs = append(xs, x)
		ys = append(ys, cal.CDF(x))
	}
	probs := make([]string, len(fig4Quantiles))
	rtts := make([]string, len(fig4Quantiles))
	for i, q := range fig4Quantiles {
		probs[i] = fmt.Sprint(q)
		rtts[i] = fmt.Sprintf("%.0f", cal.Quantile(q))
	}
	return Result{
		ID:     "fig04",
		Title:  "Cumulative distribution of round-trip time (no attack)",
		XLabel: "RTT (CPU cycles)",
		YLabel: "F(x)",
		Series: []textplot.Series{{Label: fmt.Sprintf("empirical CDF (%d trials)", trials), X: xs, Y: ys}},
		Notes: []string{
			fmt.Sprintf("x_min = %.0f cycles, x_max = %.0f cycles", cal.XMin(), cal.XMax()),
			fmt.Sprintf("RTT quantiles %s: %s cycles", strings.Join(probs, ", "), strings.Join(rtts, " ")),
			fmt.Sprintf("spread = %.2f bit-times (paper: ~4.5); replay threshold = %.0f cycles",
				cal.SpreadBits(), cal.Threshold()),
			fmt.Sprintf("one 16-byte packet = %d cycles: any store-and-forward replay is caught",
				phy.FrameAirTime(16)),
		},
	}, nil
}

// quickDeploy shrinks the deployment for smoke tests and benchmarks.
func quickDeploy(c *scenario.Config) {
	c.Deploy.N = 300
	c.Deploy.Nb = 33
	c.Deploy.Na = 3
	c.Deploy.Field = geo.Square(550)
}

// calStats runs the shared RTT calibration and returns its full
// statistics: the threshold is a deployment constant, not per-run state,
// so it is measured once per figure and pinned into every scenario, and
// the moments ride along for detectors that calibrate on them (the
// Mahalanobis detector's mean/σ). It runs as a one-job sweep, so with a
// cache the measurement is memoized by (trials, seed) — and
// single-flighted, so the concurrently regenerating figures that all
// calibrate with the same parameters pay for one calibration between
// them.
func calStats(o Options) (core.RTTStats, error) {
	calTrials := 2000
	if o.Quick {
		calTrials = 500
	}
	seed := o.Seed ^ 0xC0FFEE
	rows, err := harness.Sweep(context.Background(), harness.Spec[core.RTTStats]{
		Label:  "rtt-calibration",
		Points: []string{"calibration"},
		Trials: 1,
		Cache:  o.Cache,
		Config: struct {
			Trials int
			Seed   uint64
		}{calTrials, seed},
		Run: func(context.Context, harness.Job) (core.RTTStats, error) {
			cal, err := core.CalibrateRTT(calTrials, seed, o.Workers)
			return cal.Stats(), err
		},
	})
	if err != nil {
		return core.RTTStats{}, err
	}
	return rows[0][0], nil
}

// scenarioSweep runs a grid of full scenario runs on the trial harness.
// A job runs the configs configsAt returns for its point, in order, each
// on the job's seeds: Seed is the job's own and Deploy.Seed the trial's,
// so every point and every variant of a trial share one deployment
// (common random numbers) and curves differ only in what the configs
// change. measure turns each run's live result into what the sweep keeps
// of it, so one run's simulation is garbage before the next starts; the
// measures come back indexed [point][trial][config]. The configs, seeds
// zeroed, are the sweep's cache Config, so anything a builder sets is in
// the cache key; the sweep label is a seed stream, so figures that share
// one (fig12 and fig13 share "detect") address the same cached trials.
func scenarioSweep[M any](o Options, label string, points []string, trials int,
	configsAt func(point int) []scenario.Config,
	measure func(job harness.Job, cfg scenario.Config, res *scenario.Result) M,
) ([][][]M, harness.Timing, error) {
	cfgs := make([][]scenario.Config, len(points))
	for p := range points {
		cfgs[p] = configsAt(p)
		for i := range cfgs[p] {
			cfgs[p][i].Seed, cfgs[p][i].Deploy.Seed = 0, 0
		}
	}
	timing := harness.NewTiming()
	rows, err := harness.Sweep(context.Background(), harness.Spec[[]M]{
		Label:    label,
		Points:   points,
		Trials:   trials,
		Seed:     o.Seed,
		Workers:  o.Workers,
		Progress: o.Progress,
		Timing:   timing,
		Cache:    o.Cache,
		Config:   cfgs,
		Run: func(_ context.Context, job harness.Job) ([]M, error) {
			ms := make([]M, len(cfgs[job.Point]))
			for i, cfg := range cfgs[job.Point] {
				cfg.Seed = job.Seed
				cfg.Deploy.Seed = job.TrialSeed
				res, err := scenario.Run(cfg)
				if err != nil {
					return nil, err
				}
				ms[i] = measure(job, cfg, res)
			}
			return ms, nil
		},
	})
	return rows, *timing, err
}

// pointMean is one point of a one-config scenario sweep: the trial means
// of the metrics the figures read, with the alert counts as floats so a
// mean is not truncated to a whole alert, and the summed
// instrumentation. The population is constant across a point's trials.
type pointMean struct {
	DetectionRate, FalsePositiveRate float64
	AffectedPerMalicious, AvgNc      float64
	BenignAlerts, TrueAlerts         float64
	Population                       analysis.Population
	Detector                         string
	// Metrics sums (not averages) the runs' counters: Metrics.Runs
	// records how many runs fed them.
	Metrics scenario.Metrics
}

// meanScenario averages one point's trials.
func meanScenario(runs []*scenario.Result) pointMean {
	var agg pointMean
	for _, r := range runs {
		agg.DetectionRate += r.DetectionRate
		agg.AffectedPerMalicious += r.AffectedPerMalicious
		agg.AvgNc += r.AvgNc
		agg.FalsePositiveRate += r.FalsePositiveRate
		agg.BenignAlerts += float64(r.BenignAlerts)
		agg.TrueAlerts += float64(r.TrueAlerts)
		agg.Population = r.Population
		agg.Detector = r.Detector
		agg.Metrics.Merge(r.Metrics)
	}
	f := float64(len(runs))
	agg.DetectionRate /= f
	agg.AffectedPerMalicious /= f
	agg.AvgNc /= f
	agg.FalsePositiveRate /= f
	agg.BenignAlerts /= f
	agg.TrueAlerts /= f
	return agg
}

// meanSweep runs a one-config scenario sweep and returns each point's
// trial mean plus the sweep's aggregate instrumentation. Point-then-trial
// order: each point merges its trials in trial order, and the points
// merge in grid order, so the aggregate is identical for any worker
// count.
func meanSweep(o Options, label string, points []string, trials int, configAt func(point int) scenario.Config) ([]pointMean, *RunMetrics, error) {
	rows, timing, err := scenarioSweep(o, label, points, trials,
		func(p int) []scenario.Config { return []scenario.Config{configAt(p)} },
		func(_ harness.Job, _ scenario.Config, res *scenario.Result) *scenario.Result { return res })
	if err != nil {
		return nil, nil, err
	}
	rm := &RunMetrics{Timing: timing}
	means := make([]pointMean, len(rows))
	for p, row := range rows {
		runs := make([]*scenario.Result, len(row))
		for tr, job := range row {
			runs[tr] = job[0]
		}
		means[p] = meanScenario(runs)
		rm.Scenario.Merge(means[p].Metrics)
	}
	return means, rm, nil
}

// simSweep runs the paper-scale scenario across a P grid, with the
// shared calibration pinned, and returns the per-P means.
func simSweep(o Options, label string, ps []float64, trials int, mutate func(*scenario.Config)) ([]pointMean, *RunMetrics, error) {
	stats, err := calStats(o)
	if err != nil {
		return nil, nil, err
	}
	return meanSweep(o, label, harness.FloatLabels("P", ps), trials, func(p int) scenario.Config {
		cfg := scenario.Paper()
		cfg.Strategy = analysis.StrategyForP(ps[p])
		cfg.RTTStats = &stats
		if o.Quick {
			quickDeploy(&cfg)
		}
		if mutate != nil {
			mutate(&cfg)
		}
		return cfg
	})
}

func sweepGrid(o Options) ([]float64, int) {
	if o.Quick {
		return []float64{0.1, 0.3}, 1
	}
	return []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5}, 3
}

// detectionSweep is the simulation sweep behind Figures 12 and 13: the
// paper-scale scenario across the P grid with colluding reports off.
// Both figures read different columns of the same runs, so they share
// one sweep label ("detect"): their trial fingerprints coincide, and
// with a cache the two concurrently regenerating figures single-flight
// to one set of simulations instead of two.
func detectionSweep(o Options) ([]float64, []pointMean, *RunMetrics, error) {
	ps, trials := sweepGrid(o)
	sims, rm, err := simSweep(o, "detect", ps, trials, func(c *scenario.Config) { c.Collude = false })
	return ps, sims, rm, err
}

// Fig12 regenerates Figure 12: revocation detection rate vs P, simulation
// against theory, at (τ=10, τ′=2), m=8, p_d=0.9, one analog wormhole.
func Fig12(o Options) (Result, error) {
	ps, sims, rm, err := detectionSweep(o)
	if err != nil {
		return Result{}, err
	}
	var simY, thY []float64
	for i, p := range ps {
		simY = append(simY, sims[i].DetectionRate)
		thY = append(thY, analysis.RevocationRate(p, 8, 2, int(sims[i].AvgNc), sims[i].Population))
	}
	res := Result{
		ID:     "fig12",
		Title:  "Detection rate vs P: simulation against theory (tau=10, tau'=2)",
		XLabel: "P",
		YLabel: "detection rate",
		Series: []textplot.Series{
			{Label: "simulation", X: ps, Y: simY},
			{Label: "theory", X: ps, Y: thY},
		},
		Metrics: rm,
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"measured Nc = %.0f; simulation tracks theory (paper: 'the result conforms to the theoretical analysis')",
		sims[len(sims)-1].AvgNc))
	return res, nil
}

// Fig13 regenerates Figure 13: N′ (affected non-beacon nodes per
// malicious beacon) vs P, simulation against theory.
func Fig13(o Options) (Result, error) {
	ps, sims, rm, err := detectionSweep(o)
	if err != nil {
		return Result{}, err
	}
	var simY, thY []float64
	for i, p := range ps {
		simY = append(simY, sims[i].AffectedPerMalicious)
		// The theoretical N' uses the *sensor* fraction of the measured
		// neighbor count as its requester pool, like the formula's
		// (N - N_b)/N factor does.
		thY = append(thY, analysis.AffectedNodes(p, 8, 2, int(sims[i].AvgNc), sims[i].Population))
	}
	return Result{
		ID:     "fig13",
		Title:  "Affected non-beacon nodes N' vs P: simulation against theory",
		XLabel: "P",
		YLabel: "N' per malicious beacon",
		Series: []textplot.Series{
			{Label: "simulation", X: ps, Y: simY},
			{Label: "theory", X: ps, Y: thY},
		},
		Metrics: rm,
		Notes: []string{
			"observable but small sim-theory gap, as in the paper ('in general close to each other')",
		},
	}, nil
}

// Fig14 regenerates Figure 14: ROC curves — detection rate vs
// false-positive rate for N_a ∈ {5, 10} and τ′ ∈ {2, 3, 4}, each point a
// different report cap τ, with colluding malicious reporters and P chosen
// to maximize N′.
func Fig14(o Options) (Result, error) {
	taus := []int{1, 2, 4, 6, 8, 10}
	nas := []int{5, 10}
	tauPs := []int{2, 3, 4}
	trials := 2
	if o.Quick {
		taus = []int{2, 10}
		nas = []int{5}
		tauPs = []int{2}
		trials = 1
	}
	stats, err := calStats(o)
	if err != nil {
		return Result{}, err
	}

	// The sweep's points are the full (N_a, τ′, τ) grid; each curve of
	// the figure groups the τ points of one (N_a, τ′) pair.
	type combo struct{ na, tauP, tau int }
	var combos []combo
	var labels []string
	for _, na := range nas {
		for _, tauP := range tauPs {
			for _, tau := range taus {
				combos = append(combos, combo{na, tauP, tau})
				labels = append(labels, fmt.Sprintf("Na=%d,tau'=%d,tau=%d", na, tauP, tau))
			}
		}
	}
	points, rm, err := meanSweep(o, "fig14", labels, trials, func(point int) scenario.Config {
		c := combos[point]
		cfg := scenario.Paper()
		cfg.Deploy.Na = c.na
		cfg.Revoke = revoke.Config{ReportCap: c.tau, AlertThreshold: c.tauP}
		cfg.RTTStats = &stats
		if o.Quick {
			quickDeploy(&cfg)
			cfg.Deploy.Na = min(c.na, 5)
		}
		// Attacker picks P maximizing N' for these thresholds
		// (paper's assumption).
		pop := analysis.Population{N: cfg.Deploy.N, Nb: cfg.Deploy.Nb, Na: cfg.Deploy.Na}
		_, pStar := analysis.MaxAffected(cfg.Deploy.DetectingIDs, c.tauP, 68, pop)
		cfg.Strategy = analysis.StrategyForP(pStar)
		return cfg
	})
	if err != nil {
		return Result{}, err
	}

	res := Result{
		ID:      "fig14",
		Title:   "ROC: detection rate vs false-positive rate (colluding reporters)",
		XLabel:  "false positive rate",
		YLabel:  "detection rate",
		Metrics: rm,
	}
	for i := 0; i < len(combos); i += len(taus) {
		var xs, ys []float64
		for j := i; j < i+len(taus); j++ {
			xs = append(xs, points[j].FalsePositiveRate)
			ys = append(ys, points[j].DetectionRate)
		}
		res.Series = append(res.Series, textplot.Series{
			Label:   fmt.Sprintf("Na=%d,tau'=%d", combos[i].na, combos[i].tauP),
			X:       xs,
			Y:       ys,
			Scatter: true,
		})
	}
	res.Notes = append(res.Notes,
		"most malicious beacons revoked at ~5% FPR when Na=5; FPR grows with Na (colluders force ~Na(tau+1)/(tau'+1) revocations)")
	return res, nil
}

// pairedSweep runs the paper-scale scenario across a P grid with the full
// defense and without it (no filters, no revocation), both variants of a
// job on identical seeds — a paired design, so the comparison is not
// smeared by topology variance between the two curves — and returns each
// point's trial mean of metric for either variant. label names the sweep.
func pairedSweep(o Options, label string, ps []float64, trials int,
	metric func(res *scenario.Result, cfg scenario.Config, job harness.Job) float64) ([]float64, []float64, error) {
	rows, _, err := scenarioSweep(o, label, harness.FloatLabels("P", ps), trials,
		func(p int) []scenario.Config {
			cfg := scenario.Paper()
			cfg.Strategy = analysis.StrategyForP(ps[p])
			cfg.Collude = false
			cfg.CalibrationTrials = 500
			if o.Quick {
				quickDeploy(&cfg)
			}
			undefended := cfg
			undefended.DisableRTTFilter = true
			undefended.WormholeRate = 0
			// An absurd alert threshold disables revocation.
			undefended.Revoke.AlertThreshold = 1 << 20
			return []scenario.Config{cfg, undefended}
		},
		func(job harness.Job, cfg scenario.Config, res *scenario.Result) float64 {
			return metric(res, cfg, job)
		})
	if err != nil {
		return nil, nil, err
	}
	defended := make([]float64, len(ps))
	undefended := make([]float64, len(ps))
	for p, row := range rows {
		for _, job := range row {
			defended[p] += job[0]
			undefended[p] += job[1]
		}
		defended[p] /= float64(len(row))
		undefended[p] /= float64(len(row))
	}
	return defended, undefended, nil
}

// ExtraLocalization is extension experiment E1: the motivating claim that
// malicious beacons corrupt localization, and that detection+revocation
// restores it. Compares mean localization error with the full defense
// against a defenseless baseline (no filters, no revocation).
func ExtraLocalization(o Options) (Result, error) {
	ps := []float64{0.1, 0.3, 0.5}
	trials := 2
	if o.Quick {
		ps = []float64{0.3}
		trials = 1
	}
	defended, undefended, err := pairedSweep(o, "extra-localization", ps, trials,
		func(res *scenario.Result, _ scenario.Config, _ harness.Job) float64 { return res.LocErrMean })
	if err != nil {
		return Result{}, err
	}
	res := Result{
		ID:     "extra-localization",
		Title:  "E1: mean localization error with vs without the defense",
		XLabel: "P",
		YLabel: "mean error (ft)",
		Series: []textplot.Series{
			{Label: "defended (detect+revoke)", X: ps, Y: defended},
			{Label: "undefended", X: ps, Y: undefended},
		},
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"at P=%.1f: defended %.1f ft vs undefended %.1f ft (ranging error bound 10 ft)",
		ps[len(ps)-1], defended[len(defended)-1], undefended[len(undefended)-1]))
	return res, nil
}

// ExtraAblation is extension experiment E2: what each replay filter buys.
// Three configurations under a wormhole plus local replay attackers:
// full defense, RTT filter off, wormhole detector off — reporting false
// alerts between benign beacons.
func ExtraAblation(o Options) (Result, error) {
	trials := 3
	if o.Quick {
		trials = 1
	}
	type variant struct {
		label string
		mut   func(*scenario.Config)
	}
	variants := []variant{
		{"full defense", func(c *scenario.Config) {}},
		{"RTT filter off", func(c *scenario.Config) { c.DisableRTTFilter = true }},
		{"wormhole detector off", func(c *scenario.Config) { c.WormholeRate = 0 }},
	}
	// Each job runs all three variants on identical seeds (paired), so
	// the ablation differences come from the disabled filter alone.
	rows, _, err := scenarioSweep(o, "extra-ablation", []string{"benign-alerts"}, trials,
		func(int) []scenario.Config {
			cfg := scenario.Paper()
			cfg.Strategy = analysis.StrategyForP(0) // benign-behaving compromised nodes
			cfg.Collude = false
			cfg.CalibrationTrials = 500
			if o.Quick {
				quickDeploy(&cfg)
				cfg.Wormholes = []scenario.WormholeSpec{{
					A: geo.Point{X: 100, Y: 100}, B: geo.Point{X: 450, Y: 400}, Latency: 2,
				}}
			}
			// Blanket replay attackers to stress the RTT filter.
			w := cfg.Deploy.Field.Width()
			for x := w / 6; x < w; x += w / 3 {
				for y := w / 6; y < w; y += w / 3 {
					cfg.ReplayAttackers = append(cfg.ReplayAttackers, geo.Point{X: x, Y: y})
				}
			}
			cfgs := make([]scenario.Config, len(variants))
			for vi, v := range variants {
				cfgs[vi] = cfg
				v.mut(&cfgs[vi])
			}
			return cfgs
		},
		func(_ harness.Job, _ scenario.Config, res *scenario.Result) float64 {
			return float64(res.BenignAlerts)
		})
	if err != nil {
		return Result{}, err
	}

	res := Result{
		ID:     "extra-ablation",
		Title:  "E2: false alerts between benign beacons, by disabled filter",
		XLabel: "variant (0=full, 1=no RTT, 2=no wormhole detector)",
		YLabel: "false alerts",
	}
	for vi, v := range variants {
		var acc float64
		for _, alerts := range rows[0] {
			acc += alerts[vi]
		}
		res.Series = append(res.Series, textplot.Series{
			Label:   v.label,
			X:       []float64{float64(vi)},
			Y:       []float64{acc / float64(trials)},
			Scatter: true,
		})
	}
	res.Notes = append(res.Notes,
		"the full defense keeps benign-vs-benign alerts near the (1-p_d) wormhole floor; each disabled filter opens a false-positive channel")
	return res, nil
}
