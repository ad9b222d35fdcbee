package node

import (
	"fmt"
	"slices"

	"beaconsec/internal/core"
	"beaconsec/internal/deploy"
	"beaconsec/internal/geo"
	"beaconsec/internal/ident"
	"beaconsec/internal/mac"
	"beaconsec/internal/packet"
	"beaconsec/internal/revoke"
	"beaconsec/internal/sim"
	"beaconsec/internal/wormhole"
)

// Beacon is a benign beacon node: it announces itself, serves beacon
// signals (its true location plus the RTT turnaround), and acts as a
// detecting node by probing neighbor beacons under its m detecting
// pseudonyms, reporting confirmed malicious targets to the base station.
type Beacon struct {
	env  *Env
	self deploy.Node
	ep   *mac.Endpoint
	det  *wormhole.Probabilistic
	req  *requester

	detectingIDs []ident.NodeID
	neighbors    map[ident.NodeID]bool // beacon IDs heard in hellos
	alerted      map[ident.NodeID]bool // targets already reported

	// Local, when non-nil, is this node's own revocation ledger for the
	// distributed (base-station-free) variant: alerts are gossiped to
	// beacon neighbors (pairwise-authenticated) instead of sent up to
	// the base station, and every beacon applies the §3 counting
	// algorithm locally. The paper lists this as future work; the
	// experiment suite quantifies what the missing global view costs.
	Local *revoke.Sharded

	// Verdicts counts detector-pipeline outcomes by verdict.
	Verdicts map[core.Verdict]int
	// AlertsSent lists the targets this node reported.
	AlertsSent []ident.NodeID
	// RepliesServed counts beacon signals sent.
	RepliesServed int
}

// NewBeacon builds the benign beacon at deployment index i and wires it
// to the environment.
func NewBeacon(env *Env, i int) *Beacon {
	n := env.Dep.Nodes[i]
	if n.Kind != deploy.KindBeacon {
		panic(fmt.Sprintf("node: index %d is %v, not a benign beacon", i, n.Kind))
	}
	ids := []ident.NodeID{n.ID}
	for j := 0; j < env.Dep.Cfg.DetectingIDs; j++ {
		ids = append(ids, env.Dep.Space.DetectingID(i, j))
	}
	b := &Beacon{
		env:          env,
		self:         n,
		ep:           env.endpointFor(i, ids...),
		det:          env.detectorFor(i),
		detectingIDs: ids[1:],
		neighbors:    make(map[ident.NodeID]bool),
		alerted:      make(map[ident.NodeID]bool),
		Verdicts:     make(map[core.Verdict]int),
	}
	b.req = newRequester(env, b.ep)
	b.req.onObservation = b.observe
	b.ep.SetHandler(b.handle)
	return b
}

// ID returns the beacon's primary identity.
func (b *Beacon) ID() ident.NodeID { return b.self.ID }

// TrueLoc returns the beacon's (known) location.
func (b *Beacon) TrueLoc() geo.Point { return b.self.Loc }

// NeighborBeacons returns the sorted-by-ID list of beacon neighbors
// discovered so far.
func (b *Beacon) NeighborBeacons() []ident.NodeID { return sortedIDs(b.neighbors) }

// ProbeStats returns the node's request/reply exchange counters.
func (b *Beacon) ProbeStats() ProbeStats { return b.req.stats }

// LinkStats returns the node's link-layer counters.
func (b *Beacon) LinkStats() mac.Stats { return b.ep.Stats() }

// AnnounceAt schedules the beacon's hello broadcast.
func (b *Beacon) AnnounceAt(at sim.Time) {
	b.env.Sched.At(at, func() {
		b.ep.Send(ident.Broadcast, packet.Hello{}, mac.SendOptions{})
	})
}

// StartDetection schedules one probe per (detecting ID, neighbor beacon)
// pair, spread uniformly over [from, from+window). The per-pseudonym
// probes are what give the node its m independent detection chances
// (paper §2.3).
func (b *Beacon) StartDetection(from sim.Time, window sim.Time) {
	b.env.Sched.At(from, func() {
		src := b.env.Src.MakeSplit("detsched", uint64(b.self.ID))
		b.req.schedule(&src, window, b.NeighborBeacons(), b.detectingIDs)
	})
}

func (b *Beacon) handle(d mac.Delivery) {
	switch p := d.Pkt.Payload.(type) {
	case packet.Hello:
		if b.env.Dep.Space.IsBeaconID(d.Pkt.Header.Src) && d.Pkt.Header.Src != b.self.ID {
			b.neighbors[d.Pkt.Header.Src] = true
		}
	case packet.BeaconRequest:
		// Serve a beacon signal under the primary identity only; the
		// detecting pseudonyms are requesters, not beacons.
		if d.Local != b.self.ID {
			return
		}
		b.serveReply(d)
	case packet.BeaconReply:
		b.req.handleReply(d, p)
	case packet.Alert:
		// Distributed variant: a gossiped alert from a peer beacon
		// feeds the local ledger under the same §3 counting rules.
		if b.Local != nil && d.Local == b.self.ID {
			b.Local.HandleAlert(d.Pkt.Header.Src, p.Target)
		}
	}
}

// serveReply answers a beacon request with this node's true location and
// the honestly measured turnaround (t3 - t2), which the link layer
// writes at transmit time.
func (b *Beacon) serveReply(d mac.Delivery) {
	b.RepliesServed++
	b.ep.Send(d.Pkt.Header.Src, packet.BeaconReply{
		Loc:  b.self.Loc,
		Echo: d.Pkt.Header.Seq,
	}, mac.SendOptions{T2: d.FirstByteSPDR})
}

// observe runs the detector pipeline on a completed probe.
func (b *Beacon) observe(p *probe, d mac.Delivery, reply replyInfo) {
	o := observationFrom(b.det, b.self.Loc, true, p, d, reply)
	v := b.env.Detector.EvaluateDetector(o)
	b.Verdicts[v]++
	// One determination per target: further malicious verdicts from the
	// node's other detecting pseudonyms add no information.
	if v.Alertable() && !b.alerted[p.target] {
		b.alerted[p.target] = true
		b.AlertsSent = append(b.AlertsSent, p.target)
		if b.Local == nil {
			b.env.Uplink.SendAlert(b.self.ID, p.target)
		} else {
			b.gossipAlert(p.target)
		}
	}
}

// gossipAlert feeds an alert to the node's own ledger and gossips it to
// every beacon neighbor (pairwise-authenticated unicasts).
func (b *Beacon) gossipAlert(target ident.NodeID) {
	b.Local.HandleAlert(b.self.ID, target)
	for _, peer := range b.NeighborBeacons() {
		if peer == target {
			continue
		}
		b.ep.Send(peer, packet.Alert{Target: target}, mac.SendOptions{})
	}
}

// sortedIDs returns the members of set in ascending ID order, so that
// what a node sends to them does not depend on map iteration order.
func sortedIDs(set map[ident.NodeID]bool) []ident.NodeID {
	out := make([]ident.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}
