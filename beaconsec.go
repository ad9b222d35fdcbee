// Package beaconsec is a from-scratch reproduction of "Detecting
// Malicious Beacon Nodes for Secure Location Discovery in Wireless Sensor
// Networks" (Liu, Ning & Du, ICDCS 2005): a complete simulated
// sensor-network stack (cycle-accurate radio timing, CSMA link layer,
// pairwise-key cryptography, wormhole attacks, multilateration) plus the
// paper's contribution — detectors for malicious beacon signals, replay
// filters, and base-station revocation.
//
// The package is a facade over the internal implementation. It exposes
// what this repository's examples use:
//
//   - the detector primitives (DetectorConfig, Observation, Verdict,
//     CalibrateRTT) to embed the paper's checks in another system;
//   - the closed-form analysis (RevocationRate, MaxAffected,
//     FalsePositiveBound) to size deployments;
//   - the end-to-end scenario engine (PaperScenario, RunScenario) to
//     simulate full networks under attack;
//   - multilateration (Multilaterate) to localize from beacon references.
//
// cmd/figures regenerates every figure of the paper's evaluation.
//
// Quickstart:
//
//	cfg := beaconsec.PaperScenario()
//	cfg.Strategy = beaconsec.StrategyForP(0.2)
//	res, err := beaconsec.RunScenario(cfg)
//	// res.DetectionRate, res.FalsePositiveRate, res.AffectedPerMalicious ...
package beaconsec

import (
	"beaconsec/internal/analysis"
	"beaconsec/internal/core"
	"beaconsec/internal/deploy"
	"beaconsec/internal/geo"
	"beaconsec/internal/ident"
	"beaconsec/internal/localization"
	"beaconsec/internal/revoke"
	"beaconsec/internal/scenario"
)

// Geometry and identity.
type (
	// Point is a location in the sensing field, in feet.
	Point = geo.Point
	// Rect is an axis-aligned region of the field.
	Rect = geo.Rect
	// NodeID identifies a node or detecting pseudonym.
	NodeID = ident.NodeID
)

// Square returns a side × side sensing field anchored at the origin.
func Square(side float64) Rect { return geo.Square(side) }

// Detector primitives (the paper's §2).
type (
	// DetectorConfig parameterizes the malicious-beacon-signal detector
	// suite: ε_max, the RTT threshold, and the radio range.
	DetectorConfig = core.Config
	// Observation is one completed beacon exchange as seen by a
	// requester.
	Observation = core.Observation
	// Verdict classifies an observation.
	Verdict = core.Verdict
	// Calibration is the empirical no-attack RTT distribution
	// (Figure 4); its Threshold feeds DetectorConfig.MaxRTT.
	Calibration = core.Calibration
)

// Verdicts.
const (
	VerdictBenign         = core.VerdictBenign
	VerdictMalicious      = core.VerdictMalicious
	VerdictWormholeReplay = core.VerdictWormholeReplay
	VerdictLocalReplay    = core.VerdictLocalReplay
)

// CalibrateRTT measures trials simulated request/reply exchanges on a
// MICA2-class radio stack and returns the empirical RTT distribution,
// reproducing the paper's Figure 4 methodology.
func CalibrateRTT(trials int, seed uint64) Calibration {
	return core.CalibrateRTT(trials, seed)
}

// Analysis (the paper's §2.3 and §3.2 closed forms).
type (
	// Strategy is the malicious beacon's (p_n, p_w, p_l) behavior
	// triple.
	Strategy = analysis.Strategy
	// Population holds (N, N_b, N_a).
	Population = analysis.Population
)

// StrategyForP returns the canonical strategy with undetected-attack
// probability P.
func StrategyForP(p float64) Strategy { return analysis.StrategyForP(p) }

// PaperPopulation returns the reconstructed evaluation population
// (N=1000, N_b=110, N_a=10).
func PaperPopulation() Population { return analysis.PaperPopulation() }

// RevocationRate returns P_d, the probability a malicious beacon with nc
// requesters is revoked at alert threshold τ′ (Figures 6–7).
func RevocationRate(p float64, m, tauPrime, nc int, pop Population) float64 {
	return analysis.RevocationRate(p, m, tauPrime, nc, pop)
}

// MaxAffected returns the attacker-optimal N′ and the P achieving it
// (Figure 9).
func MaxAffected(m, tauPrime, nc int, pop Population) (maxAffected, argP float64) {
	return analysis.MaxAffected(m, tauPrime, nc, pop)
}

// FalsePositiveBound returns N_f, the worst-case benign revocations under
// collusion and undetected wormholes.
func FalsePositiveBound(nw, na, tau, tauPrime int, pd float64) float64 {
	return analysis.FalsePositiveBound(nw, na, tau, tauPrime, pd)
}

// Scenario engine (the paper's §4 simulation).
type (
	// ScenarioConfig parameterizes an end-to-end run.
	ScenarioConfig = scenario.Config
	// ScenarioResult carries a run's measurements.
	ScenarioResult = scenario.Result
	// WormholeSpec places one wormhole tunnel.
	WormholeSpec = scenario.WormholeSpec
	// DeployConfig parameterizes the network deployment.
	DeployConfig = deploy.Config
	// RevocationConfig holds the (τ, τ′) thresholds.
	RevocationConfig = revoke.Config
)

// PaperScenario returns the reconstructed §4 simulation configuration:
// 1,000 nodes (110 beacons, 10 compromised) in a 1000×1000 ft field,
// 150 ft range, m=8, p_d=0.9, (τ=10, τ′=2), one analog wormhole between
// (100,100) and (800,700), colluding malicious reporters.
func PaperScenario() ScenarioConfig { return scenario.Paper() }

// RunScenario executes one full simulation.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) { return scenario.Run(cfg) }

// Localization substrate.
type (
	// Reference is one location reference (beacon location, measured
	// distance).
	Reference = localization.Reference
)

// Multilaterate estimates a position from distance references (linear
// least squares + Gauss–Newton).
func Multilaterate(refs []Reference) (Point, error) { return localization.Multilaterate(refs) }
