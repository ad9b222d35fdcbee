// Package wormhole implements the wormhole attack (a low-latency tunnel
// that records radio traffic at one point of the field and replays it at
// another, per Hu–Perrig–Johnson) and the wormhole detector the paper
// assumes is "installed on every beacon and non-beacon node".
//
// The paper's analysis treats the detector abstractly: it catches a real
// wormhole replay with probability p_d and never accuses clean traffic;
// additionally a malicious sender "can always manipulate its beacon
// signals to convince the detecting node that there is a wormhole attack".
// Probabilistic implements exactly that contract.
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

// Detect reports whether the detector flags an exchange as wormholed.
// replayed is the physical layer's ground truth that the frame came
// through a tunnel, which the detector catches at rate p_d; marked is the
// sender's manipulation of its signal to look wormholed, which always
// convinces it.
func (p *Probabilistic) Detect(replayed, marked bool) bool {
	if marked {
		return true
	}
	if replayed {
		return p.src.Bool(p.Rate)
	}
	return false
}
