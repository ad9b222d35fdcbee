package node

import (
	"fmt"
	"slices"

	"beaconsec/internal/core"
	"beaconsec/internal/deploy"
	"beaconsec/internal/geo"
	"beaconsec/internal/ident"
	"beaconsec/internal/localization"
	"beaconsec/internal/mac"
	"beaconsec/internal/packet"
	"beaconsec/internal/sim"
	"beaconsec/internal/wormhole"
)

// Reference is a location reference a sensor accepted, tagged with its
// source for revocation and ground-truth accounting.
type Reference struct {
	Source ident.NodeID
	Ref    localization.Reference
}

// Sensor is a non-beacon node: it discovers beacon neighbors, requests
// beacon signals, filters replays (it cannot run the distance-consistency
// check — it does not know its own location yet), honors revocations, and
// finally estimates its position.
type Sensor struct {
	env  *Env
	self deploy.Node
	ep   *mac.Endpoint
	det  *wormhole.Probabilistic
	req  *requester

	neighbors map[ident.NodeID]bool
	revoked   map[ident.NodeID]bool

	// References are the accepted location references.
	References []Reference
	// Verdicts counts filter outcomes.
	Verdicts map[core.Verdict]int
	// AcceptedFrom records which beacon IDs contributed accepted
	// references.
	AcceptedFrom map[ident.NodeID]bool
}

// NewSensor builds the sensor at deployment index i.
func NewSensor(env *Env, i int) *Sensor {
	n := env.Dep.Nodes[i]
	if n.Kind != deploy.KindSensor {
		panic(fmt.Sprintf("node: index %d is %v, not a sensor", i, n.Kind))
	}
	s := &Sensor{
		env:          env,
		self:         n,
		ep:           env.endpointFor(i, n.ID),
		det:          env.detectorFor(i),
		neighbors:    make(map[ident.NodeID]bool),
		revoked:      make(map[ident.NodeID]bool),
		Verdicts:     make(map[core.Verdict]int),
		AcceptedFrom: make(map[ident.NodeID]bool),
	}
	s.req = newRequester(env, s.ep)
	// A request whose target is revoked before its start never starts.
	s.req.revoked = s.revoked
	s.req.onObservation = s.observe
	s.ep.SetHandler(s.handle)
	return s
}

// ID returns the sensor's identity.
func (s *Sensor) ID() ident.NodeID { return s.self.ID }

// TrueLoc returns the ground-truth location (for experiment metrics; the
// protocol code never reads it).
func (s *Sensor) TrueLoc() geo.Point { return s.self.Loc }

// NeighborBeacons returns the discovered beacon neighbors in ID order.
func (s *Sensor) NeighborBeacons() []ident.NodeID { return sortedIDs(s.neighbors) }

// ProbeStats returns the node's request/reply exchange counters.
func (s *Sensor) ProbeStats() ProbeStats { return s.req.stats }

// LinkStats returns the node's link-layer counters.
func (s *Sensor) LinkStats() mac.Stats { return s.ep.Stats() }

// StartRequests schedules one beacon request per discovered neighbor,
// spread uniformly over [from, from+window).
func (s *Sensor) StartRequests(from, window sim.Time) {
	s.env.Sched.At(from, func() {
		src := s.env.Src.MakeSplit("reqsched", uint64(s.self.ID))
		targets := s.NeighborBeacons()
		// Room for a reference from every neighbour, so accepting them
		// costs no reallocation.
		s.References = slices.Grow(s.References, len(targets))
		s.req.schedule(&src, window, targets, []ident.NodeID{s.self.ID})
	})
}

// MarkRevoked applies a base-station revocation: drop existing references
// from the node and never use it again.
func (s *Sensor) MarkRevoked(id ident.NodeID) {
	if s.revoked[id] {
		return
	}
	s.revoked[id] = true
	kept := s.References[:0]
	for _, r := range s.References {
		if r.Source != id {
			kept = append(kept, r)
		}
	}
	s.References = kept
	delete(s.AcceptedFrom, id)
}

func (s *Sensor) handle(d mac.Delivery) {
	switch p := d.Pkt.Payload.(type) {
	case packet.Hello:
		if s.env.Dep.Space.IsBeaconID(d.Pkt.Header.Src) {
			s.neighbors[d.Pkt.Header.Src] = true
		}
	case packet.BeaconReply:
		s.req.handleReply(d, p)
	}
}

func (s *Sensor) observe(p *probe, d mac.Delivery, reply replyInfo) {
	if s.revoked[p.target] {
		return
	}
	o := observationFrom(s.det, geo.Point{}, false, p, d, reply)
	v := s.env.Detector.EvaluateSensor(o)
	s.Verdicts[v]++
	if !v.Accepted() {
		return
	}
	s.References = append(s.References, Reference{
		Source: p.target,
		Ref:    localization.Reference{Loc: reply.claimed, Dist: d.MeasuredDist},
	})
	s.AcceptedFrom[p.target] = true
}

// Localize estimates the sensor's position from its accepted,
// non-revoked references. The estimate is clamped to the sensing field:
// a node knows it was deployed inside the field, so any solution outside
// it is truncated to the boundary.
func (s *Sensor) Localize() (geo.Point, error) {
	refs := make([]localization.Reference, 0, len(s.References))
	for _, r := range s.References {
		refs = append(refs, r.Ref)
	}
	est, err := localization.Multilaterate(refs)
	if err != nil {
		return geo.Point{}, err
	}
	return s.env.Dep.Cfg.Field.Clamp(est), nil
}

// LocalizationError returns the distance between the estimate and the
// true location; the second return is false when localization failed.
func (s *Sensor) LocalizationError() (float64, bool) {
	est, err := s.Localize()
	if err != nil {
		return 0, false
	}
	return est.Dist(s.self.Loc), true
}
