// Package wormhole implements the wormhole attack (a low-latency tunnel
// that records radio traffic at one point of the field and replays it at
// another, per Hu–Perrig–Johnson) and the wormhole detectors the paper
// assumes are "installed on every beacon and non-beacon node".
//
// The paper's analysis treats the detector abstractly: it catches a real
// wormhole replay with probability p_d and never accuses clean traffic;
// additionally a malicious sender "can always manipulate its beacon
// signals to convince the detecting node that there is a wormhole attack".
// Probabilistic implements exactly that contract. GeoLeash is a concrete
// instantiation (geographic packet leashes) provided to show the contract
// is realizable.
package wormhole

import (
	"fmt"

	"beaconsec/internal/geo"
	"beaconsec/internal/phy"
	"beaconsec/internal/rng"
	"beaconsec/internal/sim"
)

// Tunnel is a wormhole between two points of the sensing field. Every
// frame transmitted within capture range of one endpoint is re-injected at
// the other endpoint, bit-by-bit as it arrives (an analog physical-layer
// relay): the replayed frame starts Latency cycles after the original
// starts. A near-zero Latency is what lets the wormhole slip past the RTT
// detector — the paper's false-positive analysis hinges on replays whose
// added delay is "less than the transmission time of 4.5 bits". A
// store-and-forward wormhole would add two full frame times and be caught
// by the RTT filter; the ablation experiments exercise that case via a
// large Latency.
type Tunnel struct {
	// A and B are the endpoints. They are fixed once installed: Install
	// builds the medium's injection ports there.
	A, B geo.Point
	// Latency is the tunnel's one-way relay delay in cycles.
	Latency sim.Time

	medium       *phy.Medium
	sched        *sim.Scheduler
	portA, portB *phy.Port
	captureR     float64
	// Forwarded counts frames relayed (both directions).
	Forwarded uint64
}

// Install attaches the tunnel to a medium. captureRange is how close to an
// endpoint a transmission must originate to be captured; the paper's
// tunnel "forwards every message received at one side", i.e. everything
// within radio range of the endpoint.
func Install(sched *sim.Scheduler, medium *phy.Medium, a, b geo.Point, latency sim.Time) *Tunnel {
	t := &Tunnel{
		A:        a,
		B:        b,
		medium:   medium,
		sched:    sched,
		portA:    medium.NewPort(a),
		portB:    medium.NewPort(b),
		captureR: medium.Range(),
		Latency:  latency,
	}
	medium.AddTap(t.tap)
	return t
}

func (t *Tunnel) tap(origin geo.Point, f phy.Frame, info phy.TxInfo) {
	// Never re-capture replayed traffic: a tunnel that forwards its own
	// (or another tunnel's) output loops forever.
	if f.Replayed {
		return
	}
	var exit *phy.Port
	switch {
	case origin.Dist(t.A) <= t.captureR:
		exit = t.portB
	case origin.Dist(t.B) <= t.captureR:
		exit = t.portA
	default:
		return
	}
	replay := f
	replay.Replayed = true
	replay.Finalize = nil // capture what was actually on air
	data := make([]byte, len(f.Data))
	copy(data, f.Data)
	replay.Data = data
	t.Forwarded++
	// Bit-level relay: the replay starts Latency after the original
	// started (the tap runs at AirStart, so this never schedules into
	// the past).
	t.sched.At(info.AirStart+t.Latency, func() {
		t.medium.Inject(exit, replay)
	})
}

// Context is what a node's wormhole detector can examine about one
// received beacon exchange.
type Context struct {
	// Truth flags from the physical layer: Replayed is ground truth the
	// concrete detector machinery keys its error rate on; WormholeMark
	// is the attacker's signal manipulation.
	Replayed     bool
	WormholeMark bool
	// ClaimedDist is the distance between the receiver's location and
	// the location claimed in the packet, when the receiver knows its
	// own location (beacon nodes); negative when unknown (non-beacon
	// nodes before localization).
	ClaimedDist float64
	// Range is the radio communication range.
	Range float64
}

// Detector decides whether an exchange traversed a wormhole.
type Detector interface {
	Detect(ctx Context) bool
}

// Probabilistic is the paper's abstract detector: detection rate p_d on
// real wormhole replays, zero false positives on clean traffic, and
// guaranteed detection when the sender manipulates its signal to look
// wormholed.
type Probabilistic struct {
	// Rate is p_d in [0, 1].
	Rate float64
	src  *rng.Source
}

// NewProbabilistic builds the abstract detector with detection rate pd.
func NewProbabilistic(pd float64, src *rng.Source) *Probabilistic {
	if pd < 0 || pd > 1 {
		panic(fmt.Sprintf("wormhole: detection rate %v outside [0,1]", pd))
	}
	return &Probabilistic{Rate: pd, src: src}
}

// Detect implements Detector.
func (p *Probabilistic) Detect(ctx Context) bool {
	if ctx.WormholeMark {
		return true
	}
	if ctx.Replayed {
		return p.src.Bool(p.Rate)
	}
	return false
}

// GeoLeash is a geographic-leash detector: the receiver compares the
// claimed sender location against its own and flags a wormhole when the
// packet claims to have crossed more than a radio range plus slack. It is
// only usable by nodes that know their own location. In this simulator's
// geometry it detects benign-beacon wormhole replays deterministically
// (the claimed location is honest and far), i.e. it realizes p_d = 1; the
// Probabilistic detector exists to study p_d < 1.
type GeoLeash struct {
	// Slack absorbs location error in the leash comparison.
	Slack float64
}

// Detect implements Detector.
func (g GeoLeash) Detect(ctx Context) bool {
	if ctx.WormholeMark {
		return true
	}
	if ctx.ClaimedDist < 0 {
		return false // receiver location unknown; leash unusable
	}
	return ctx.ClaimedDist > ctx.Range+g.Slack
}

// Interface compliance.
var (
	_ Detector = (*Probabilistic)(nil)
	_ Detector = GeoLeash{}
)
