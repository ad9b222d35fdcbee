package core

import (
	"fmt"
	"math"
)

// mahalanobisDetector scores each exchange by the Mahalanobis distance of
// its (distance residual, RTT residual) pair under the no-attack noise
// model, in the spirit of the cheating-anchor identification of
// arXiv:1412.2857: both channels are standardized and combined into
// D² = (Δd/σ_d)² + ((RTT-μ)/σ_rtt)², and the exchange is flagged when
// D > MahalanobisThreshold.
//
// The distance residual Δd = measured − calculated is Uniform(−ε, ε)
// under no attack, so σ_d = ε/√3. The RTT moments come from the same
// no-attack calibration the paper's x_max threshold does (NewDetector's
// rtt).
//
// Attribution of a flagged exchange mirrors the paper's order: the
// wormhole filter first (far claimed origin + wormhole detector), then a
// standardized RTT above the threshold on its own is a local replay
// (replays only ever lengthen the RTT), and what remains accuses the
// target. Unlike the paper's hard ε / x_max cuts, the elliptical boundary
// trades a small false-alert rate for sensitivity to subtle attacks that
// stay inside the per-channel bounds.
type mahalanobisDetector struct {
	sigmaD  float64
	rttMean float64
	rttStd  float64
	rng     float64 // radio range, for the wormhole filter
}

func newMahalanobisDetector(cfg Config, rtt func() RTTStats) (Detector, error) {
	if rtt == nil {
		return nil, fmt.Errorf("core: detector mahalanobis: needs an RTT calibration")
	}
	stats := rtt()
	if stats.Std <= 0 {
		return nil, fmt.Errorf("core: detector mahalanobis: degenerate RTT calibration (std %v)", stats.Std)
	}
	return mahalanobisDetector{
		sigmaD:  cfg.MaxDistError / math.Sqrt(3),
		rttMean: stats.Mean,
		rttStd:  stats.Std,
		rng:     cfg.Range,
	}, nil
}

func (mahalanobisDetector) Name() string { return "mahalanobis" }

// rttScore is the standardized RTT residual.
func (d mahalanobisDetector) rttScore(o Observation) float64 {
	return (o.RTT - d.rttMean) / d.rttStd
}

func (d mahalanobisDetector) EvaluateDetector(o Observation) Verdict {
	if !o.OwnKnown {
		return d.EvaluateSensor(o)
	}
	calc := o.OwnLoc.Dist(o.Claimed)
	du := (o.MeasuredDist - calc) / d.sigmaD
	q := d.rttScore(o)
	if du*du+q*q <= MahalanobisThreshold*MahalanobisThreshold {
		return VerdictBenign
	}
	if calc > d.rng && o.WormholeDetected {
		return VerdictWormholeReplay
	}
	if q > MahalanobisThreshold {
		return VerdictLocalReplay
	}
	return VerdictMalicious
}

func (d mahalanobisDetector) EvaluateSensor(o Observation) Verdict {
	if o.WormholeDetected {
		return VerdictWormholeReplay
	}
	if d.rttScore(o) > MahalanobisThreshold {
		return VerdictLocalReplay
	}
	return VerdictBenign
}
