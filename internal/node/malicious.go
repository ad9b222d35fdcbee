package node

import (
	"fmt"
	"math"

	"beaconsec/internal/analysis"
	"beaconsec/internal/deploy"
	"beaconsec/internal/geo"
	"beaconsec/internal/ident"
	"beaconsec/internal/mac"
	"beaconsec/internal/packet"
	"beaconsec/internal/phy"
	"beaconsec/internal/sim"
)

// Action is what a malicious beacon does for one requester. Values start
// at one so the zero value is invalid.
type Action int

// Actions (paper §2.3's strategy outcomes).
const (
	// ActNormal: behave like a benign beacon for this requester.
	ActNormal Action = iota + 1
	// ActFakeWormhole: manipulate the signal so it is discarded as a
	// wormhole replay (far claimed location + detector-convincing
	// signal).
	ActFakeWormhole
	// ActFakeReplay: manipulate timing so the signal is discarded as a
	// local replay (under-reported turnaround inflates the computed
	// RTT).
	ActFakeReplay
	// ActAttack: send the misleading signal — an enlarged distance that
	// corrupts localization and is exactly what the consistency check
	// catches.
	ActAttack
)

// MaliciousConfig tunes the attacker.
type MaliciousConfig struct {
	// Strategy is the paper's (p_n, p_w, p_l) triple.
	Strategy analysis.Strategy
	// RangeBias is the distance enlargement of attack signals, in feet.
	// It must exceed 2·ε_max so the consistency check fires for every
	// requester position; the default (0 selects 5·ε_max) also makes
	// the corruption of localization unmistakable.
	RangeBias float64
}

// Malicious is a compromised beacon node. It serves beacon signals like a
// benign beacon but chooses, deterministically per requester identity
// ("the malicious beacon node behaves in the same way for the same
// requesting node, which is the best strategy"), between normal service,
// replay camouflage, and outright attack. It cannot tell detecting
// pseudonyms from real sensor IDs — the property the paper's detecting-ID
// design creates.
type Malicious struct {
	env  *Env
	self deploy.Node
	ep   *mac.Endpoint
	cfg  MaliciousConfig
	// skew is how much ActFakeReplay under-reports t3-t2, in cycles.
	skew uint32

	farClaim  geo.Point
	neighbors map[ident.NodeID]bool // beacon IDs heard in hellos

	// AttackedIDs lists requester identities that were sent an attack
	// signal (ground truth for experiment metrics).
	AttackedIDs map[ident.NodeID]bool
}

// NewMalicious builds the compromised beacon at deployment index i.
func NewMalicious(env *Env, i int, cfg MaliciousConfig) *Malicious {
	n := env.Dep.Nodes[i]
	if n.Kind != deploy.KindMalicious {
		panic(fmt.Sprintf("node: index %d is %v, not a malicious beacon", i, n.Kind))
	}
	if err := cfg.Strategy.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.RangeBias == 0 {
		cfg.RangeBias = 5 * env.Core.MaxDistError
	}
	m := &Malicious{
		env:         env,
		self:        n,
		ep:          env.endpointFor(i, n.ID),
		cfg:         cfg,
		skew:        fakeReplaySkew(env.Core.MaxRTT),
		farClaim:    farClaimFor(n.Loc, env.Dep.Cfg),
		neighbors:   make(map[ident.NodeID]bool),
		AttackedIDs: make(map[ident.NodeID]bool),
	}
	m.ep.SetHandler(m.handle)
	return m
}

// fakeReplaySkew returns a full packet time beyond the RTT threshold
// maxRTT, truncated to whole cycles and saturated to the uint32 range in
// float64: Go leaves the conversion of an out-of-range float to the
// machine, and with the RTT filter off maxRTT is MaxFloat64.
func fakeReplaySkew(maxRTT float64) uint32 {
	s := math.Trunc(maxRTT) + float64(phy.FrameAirTime(38))
	if !(s < math.MaxUint32) { // NaN too
		return math.MaxUint32
	}
	return uint32(max(s, 0))
}

// farClaimFor picks a declared location guaranteed to be more than one
// radio range from every possible requester of this node: offset the true
// location by 2.5R, flipping direction to stay loosely near the field.
func farClaimFor(loc geo.Point, cfg deploy.Config) geo.Point {
	off := 2.5 * cfg.Range
	dx, dy := off, off
	if loc.X > cfg.Field.Min.X+cfg.Field.Width()/2 {
		dx = -dx
	}
	if loc.Y > cfg.Field.Min.Y+cfg.Field.Height()/2 {
		dy = -dy
	}
	return geo.Point{X: loc.X + dx, Y: loc.Y + dy}
}

// ID returns the node's identity.
func (m *Malicious) ID() ident.NodeID { return m.self.ID }

// LinkStats returns the node's link-layer counters.
func (m *Malicious) LinkStats() mac.Stats { return m.ep.Stats() }

// AnnounceAt schedules the hello broadcast (a malicious beacon wants to
// be found).
func (m *Malicious) AnnounceAt(at sim.Time) {
	m.env.Sched.At(at, func() {
		m.ep.Send(ident.Broadcast, packet.Hello{}, mac.SendOptions{})
	})
}

// ActionFor returns the (deterministic) action for a requester identity.
func (m *Malicious) ActionFor(req ident.NodeID) Action {
	src := m.env.Src.MakeSplit("strategy", uint64(m.self.ID), uint64(req))
	if src.Bool(m.cfg.Strategy.PN) {
		return ActNormal
	}
	if src.Bool(m.cfg.Strategy.PW) {
		return ActFakeWormhole
	}
	if src.Bool(m.cfg.Strategy.PL) {
		return ActFakeReplay
	}
	return ActAttack
}

func (m *Malicious) handle(d mac.Delivery) {
	if _, isHello := d.Pkt.Payload.(packet.Hello); isHello {
		if m.env.Dep.Space.IsBeaconID(d.Pkt.Header.Src) && d.Pkt.Header.Src != m.self.ID {
			m.neighbors[d.Pkt.Header.Src] = true
		}
		return
	}
	if _, ok := d.Pkt.Payload.(packet.BeaconRequest); !ok {
		return
	}
	if d.Local != m.self.ID {
		return
	}
	req := d.Pkt.Header.Src
	loc := m.self.Loc
	opts := mac.SendOptions{T2: d.FirstByteSPDR}
	switch m.ActionFor(req) {
	case ActNormal:
	case ActFakeWormhole:
		loc = m.farClaim
		opts.WormholeMark = true
	case ActFakeReplay:
		// The link layer under-reports the turnaround by the skew,
		// saturating at 0.
		opts.Skew = m.skew
	case ActAttack:
		opts.RangeBias = m.cfg.RangeBias
		m.AttackedIDs[req] = true
	}
	m.ep.Send(req, packet.BeaconReply{Loc: loc, Echo: d.Pkt.Header.Seq}, opts)
}

// SendAlertAt schedules one fabricated alert against target.
func (m *Malicious) SendAlertAt(at sim.Time, target ident.NodeID) {
	m.env.Sched.At(at, func() {
		m.env.Uplink.SendAlert(m.self.ID, target)
	})
}

// GossipFakeAlertAt schedules one fabricated alert against target,
// gossiped over the radio to every beacon neighbor — the colluding
// behavior in the distributed (base-station-free) revocation variant.
func (m *Malicious) GossipFakeAlertAt(at sim.Time, target ident.NodeID) {
	m.env.Sched.At(at, func() {
		for _, peer := range sortedIDs(m.neighbors) {
			if peer == target {
				continue
			}
			m.ep.Send(peer, packet.Alert{Target: target}, mac.SendOptions{})
		}
	})
}
