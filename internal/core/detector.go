// Package core implements the paper's primary contribution: the detector
// suite for malicious beacon signals and malicious beacon nodes.
//
//   - The distance-consistency check (§2.1): a detecting beacon node
//     compares the distance measured from a beacon signal against the
//     distance calculated from its own location and the location declared
//     in the beacon packet; a mismatch above the maximum measurement error
//     marks the signal malicious.
//   - The wormhole-replay filter (§2.2.1): a malicious signal whose claimed
//     origin lies beyond radio range, for which the node's wormhole
//     detector fires, is a replay through a wormhole — discarded without
//     accusing the (possibly benign) claimed sender.
//   - The local-replay filter (§2.2.2): a signal whose round-trip time
//     exceeds the calibrated no-attack maximum was replayed by a nearby
//     attacker — likewise discarded.
//
// Signals that survive the replay filters and still fail the consistency
// check come directly from the target node, which is therefore malicious:
// the detecting node reports an alert (package revoke).
//
// Config runs that pipeline. Two rivals stand behind the same Detector
// interface for the bake-off: a maximum-likelihood test (det_ml.go) and a
// Mahalanobis-distance test (det_mahalanobis.go). NewDetector builds any
// of the three by name.
package core

import (
	"fmt"
	"slices"
	"strings"

	"beaconsec/internal/geo"
)

// Verdict classifies one observed beacon exchange. Values start at one so
// the zero value is never a valid verdict.
type Verdict int

// Verdicts.
const (
	// VerdictBenign: signal consistent; use it (and do not alert —
	// even a compromised node sending consistent signals "is equivalent
	// to a benign beacon node located at the declared position").
	VerdictBenign Verdict = iota + 1
	// VerdictMalicious: inconsistent signal that came directly from the
	// target — report the target to the base station.
	VerdictMalicious
	// VerdictWormholeReplay: inconsistent signal explained by a wormhole
	// replay — discard, no alert.
	VerdictWormholeReplay
	// VerdictLocalReplay: signal replayed by a local attacker — discard,
	// no alert.
	VerdictLocalReplay
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictBenign:
		return "benign"
	case VerdictMalicious:
		return "malicious"
	case VerdictWormholeReplay:
		return "wormhole-replay"
	case VerdictLocalReplay:
		return "local-replay"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Accepted reports whether the signal should be used as a location
// reference.
func (v Verdict) Accepted() bool { return v == VerdictBenign }

// Alertable reports whether the detecting node should report the target.
func (v Verdict) Alertable() bool { return v == VerdictMalicious }

// Observation is everything a requesting node knows about one completed
// beacon exchange.
type Observation struct {
	// OwnLoc is the requester's own location; valid only when OwnKnown
	// (beacon nodes acting as detectors know theirs, non-beacon nodes do
	// not yet).
	OwnLoc   geo.Point
	OwnKnown bool
	// Claimed is the location declared in the beacon packet.
	Claimed geo.Point
	// MeasuredDist is the distance derived from the beacon signal
	// (RSSI).
	MeasuredDist float64
	// RTT is (t4-t1) - (t3-t2) in cycles.
	RTT float64
	// WormholeDetected is the node's wormhole-detector output for this
	// exchange.
	WormholeDetected bool
}

// Config parameterizes the detector suite.
type Config struct {
	// MaxDistError is the maximum distance-measurement error ε_max; a
	// measured-vs-calculated mismatch beyond it marks a signal
	// malicious.
	MaxDistError float64
	// MaxRTT is the local-replay threshold: the calibrated no-attack
	// x_max (Calibration.Threshold). RTTs above it mark replays.
	MaxRTT float64
	// Range is the radio communication range, used by the wormhole
	// filter's distance condition.
	Range float64
}

// Validate returns an error when the configuration is unusable.
func (c Config) Validate() error {
	if c.MaxDistError <= 0 {
		return fmt.Errorf("core: MaxDistError %v must be positive", c.MaxDistError)
	}
	if c.MaxRTT <= 0 {
		return fmt.Errorf("core: MaxRTT %v must be positive", c.MaxRTT)
	}
	if c.Range <= 0 {
		return fmt.Errorf("core: Range %v must be positive", c.Range)
	}
	return nil
}

// SignalMalicious is the §2.1 consistency check: it reports whether the
// measured distance disagrees with the distance calculated from the
// requester's own location and the claimed location by more than the
// maximum measurement error. It requires the requester to know its own
// location.
func (c Config) SignalMalicious(o Observation) bool {
	if !o.OwnKnown {
		return false
	}
	calc := o.OwnLoc.Dist(o.Claimed)
	diff := o.MeasuredDist - calc
	if diff < 0 {
		diff = -diff
	}
	return diff > c.MaxDistError
}

// LocallyReplayed is the §2.2.2 RTT filter.
func (c Config) LocallyReplayed(o Observation) bool {
	return o.RTT > c.MaxRTT
}

// EvaluateDetector runs the full detecting-node pipeline (§2.1–2.2) and
// returns the verdict for the target node.
//
// Order per the paper: the local-replay filter guards every exchange; a
// consistent, timely signal is benign; an inconsistent one is checked
// against the wormhole filter, then against the RTT filter, and only if
// both pass is the target itself accused.
func (c Config) EvaluateDetector(o Observation) Verdict {
	if !c.SignalMalicious(o) {
		// Consistent signal — but a replayed consistent signal is
		// still discarded (it proves nothing about the claimed
		// sender's presence); the RTT filter applies to all signals.
		if c.LocallyReplayed(o) {
			return VerdictLocalReplay
		}
		return VerdictBenign
	}
	if o.OwnKnown && o.OwnLoc.Dist(o.Claimed) > c.Range && o.WormholeDetected {
		return VerdictWormholeReplay
	}
	if c.LocallyReplayed(o) {
		return VerdictLocalReplay
	}
	return VerdictMalicious
}

// Name implements Detector: Config is the paper's pipeline.
func (Config) Name() string { return DefaultDetectorName }

// EvaluateSensor runs the non-beacon-node filter: a sensor does not know
// its own location, so it cannot run the consistency check; it discards
// wormhole-detected and locally-replayed signals and accepts the rest as
// location references (§2.2: both detectors are "installed on every
// beacon and non-beacon node").
func (c Config) EvaluateSensor(o Observation) Verdict {
	if o.WormholeDetected {
		return VerdictWormholeReplay
	}
	if c.LocallyReplayed(o) {
		return VerdictLocalReplay
	}
	return VerdictBenign
}

// Detector classifies completed beacon exchanges. Implementations must be
// pure functions of the observation and their construction-time
// calibration: no internal state, no randomness, no wall clock — the same
// observation always yields the same verdict, so simulation results stay
// byte-identical for any worker count.
//
// EvaluateDetector is the detecting-node pipeline (the requester knows
// its own location); EvaluateSensor is the non-beacon-node filter (it
// does not). Config's methods are the paper's reference semantics.
type Detector interface {
	// Name returns the detector's entry in DetectorNames, which is its
	// cache identity.
	Name() string
	EvaluateDetector(o Observation) Verdict
	EvaluateSensor(o Observation) Verdict
}

// DefaultDetectorName names the paper's pipeline, Config, which the empty
// name selects too.
const DefaultDetectorName = "paper"

// The rivals run at fixed parameters, which the bake-off's closed forms
// read too.
const (
	// MLBias is the distance enlargement the maximum-likelihood test
	// assumes, in units of ε_max: 2ε, the smallest bias the paper's own
	// test catches with certainty. Its priors are equal (λ = 0), so it
	// cuts midway, at bias/2.
	MLBias = 2
	// MahalanobisThreshold is the Mahalanobis test's flag boundary in
	// standard deviations. Both residuals are bounded (uniform and
	// Irwin-Hall), so 3σ leaves only the far Irwin-Hall shoulder as a
	// false-alert channel (≈1.5e-3 per exchange; see
	// analysis.MahalanobisFlagProb).
	MahalanobisThreshold = 3
)

// DetectorNames returns the names NewDetector builds, sorted.
func DetectorNames() []string { return []string{"mahalanobis", "ml", DefaultDetectorName} }

// CheckDetectorName returns an error listing DetectorNames unless name is
// one of them.
func CheckDetectorName(name string) error {
	if slices.Contains(DetectorNames(), name) {
		return nil
	}
	return fmt.Errorf("unknown detector %q (known: %s)", name, strings.Join(DetectorNames(), ", "))
}

// ParseDetectorList parses a comma-separated list of detector names, as
// the commands' detector flags take them. Space around a name is ignored;
// an empty or unknown entry is an error listing DetectorNames, and so is
// a repeated one, which would run its sweeps twice.
func ParseDetectorList(text string) ([]string, error) {
	names := strings.Split(text, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
		if err := CheckDetectorName(names[i]); err != nil {
			return nil, err
		}
		if slices.Contains(names[:i], names[i]) {
			return nil, fmt.Errorf("detector %q listed twice (known: %s)", names[i], strings.Join(DetectorNames(), ", "))
		}
	}
	return names, nil
}

// NewDetector builds the named detector over the detection configuration
// cfg; the empty name builds the paper's pipeline, cfg itself. rtt
// returns the no-attack RTT calibration statistics. It is a closure
// because the measurement is expensive: only the Mahalanobis detector
// calls it, and callers that have the statistics pinned supply them
// without measuring.
func NewDetector(name string, cfg Config, rtt func() RTTStats) (Detector, error) {
	if name == "" {
		name = DefaultDetectorName
	}
	if err := CheckDetectorName(name); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch name {
	case "ml":
		return newMLDetector(cfg), nil
	case "mahalanobis":
		return newMahalanobisDetector(cfg, rtt)
	}
	return cfg, nil
}

// RTTStats summarizes a no-attack RTT calibration for detectors that
// need distribution moments rather than just the x_max threshold.
type RTTStats struct {
	// Mean and Std are the sample moments in cycles.
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	// Min and Max are the paper's x_min / x_max.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Threshold is the local-replay threshold (x_max + guard band).
	Threshold float64 `json:"threshold"`
}
