package core

// mlDetector is a maximum-likelihood test for distance enlargement under
// the noisy-channel model, after the position-verification framing of
// arXiv:1105.0668: the distance residual x = measured − calculated is
// noise N under H0 and N + bias under H1 (an attacker enlarging the
// measured distance to displace the location estimate). With symmetric
// noise of variance σ², the likelihood-ratio test accepts H1 when
//
//	x > bias/2 + λ·σ²/bias
//
// where λ = ln(P(H0)/P(H1)) weighs the priors. The detector assumes
// bias = MLBias·ε with equal priors (λ = 0), which puts the cut midway
// between the hypothesis means, at bias/2. The test is one-sided:
// enlargement is the paper's attack of interest (shrinkage runs into the
// same cut mirrored, which the paper's |·| test covers but an ML test
// tuned for enlargement deliberately spends no power on).
//
// Replay attribution is the paper's: the wormhole filter, then the
// calibrated x_max RTT threshold, both unchanged — only the consistency
// decision is replaced, so the sensor path is Config's.
type mlDetector struct {
	Config
	cut float64
}

func newMLDetector(cfg Config) mlDetector {
	bias := MLBias * cfg.MaxDistError
	return mlDetector{Config: cfg, cut: bias / 2}
}

func (mlDetector) Name() string { return "ml" }

func (d mlDetector) EvaluateDetector(o Observation) Verdict {
	if !o.OwnKnown {
		return d.EvaluateSensor(o)
	}
	x := o.MeasuredDist - o.OwnLoc.Dist(o.Claimed)
	if x <= d.cut {
		// Accepted by the likelihood test — but a replayed consistent
		// signal is still discarded, exactly as in the paper pipeline.
		if d.LocallyReplayed(o) {
			return VerdictLocalReplay
		}
		return VerdictBenign
	}
	if o.OwnLoc.Dist(o.Claimed) > d.Range && o.WormholeDetected {
		return VerdictWormholeReplay
	}
	if d.LocallyReplayed(o) {
		return VerdictLocalReplay
	}
	return VerdictMalicious
}
