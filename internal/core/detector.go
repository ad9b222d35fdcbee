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
package core

import (
	"fmt"

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
