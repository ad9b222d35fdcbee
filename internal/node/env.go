// Package node implements the protocol state machines that run on each
// deployed mote: benign beacon nodes (which also act as detecting nodes
// under their detecting pseudonyms), malicious beacon nodes driven by the
// paper's (p_n, p_w, p_l) strategy, non-beacon sensor nodes that collect
// location references through the replay filters and localize, and a
// standalone replay attacker for false-positive experiments.
package node

import (
	"fmt"

	"beaconsec/internal/core"
	"beaconsec/internal/crypto"
	"beaconsec/internal/deploy"
	"beaconsec/internal/geo"
	"beaconsec/internal/ident"
	"beaconsec/internal/mac"
	"beaconsec/internal/packet"
	"beaconsec/internal/phy"
	"beaconsec/internal/revoke"
	"beaconsec/internal/rng"
	"beaconsec/internal/sim"
	"beaconsec/internal/wormhole"
)

// Env is the shared substrate one simulated network's nodes run on.
type Env struct {
	Sched  *sim.Scheduler
	Medium *phy.Medium
	// Keys derives each pair's MAC once for the whole network.
	Keys *crypto.Keyring
	Dep  *deploy.Deployment
	// Core is the detection configuration (ε_max, RTT threshold, range)
	// the malicious beacons' attack sizing reads.
	Core core.Config
	// Detector evaluates every completed exchange: the paper pipeline or
	// any other implementation from core's detector registry.
	Detector core.Detector
	// Uplink carries alerts to the base station.
	Uplink *revoke.Uplink
	// Src is the environment's root random stream; nodes split
	// per-purpose child streams from it.
	Src *rng.Source
	// WormholeRate is p_d for the per-node probabilistic wormhole
	// detectors.
	WormholeRate float64
}

// detectorFor builds node i's wormhole detector.
func (e *Env) detectorFor(i int) *wormhole.Probabilistic {
	return wormhole.NewProbabilistic(e.WormholeRate, e.Src.Split(fmt.Sprintf("whdet/%d", i)))
}

// endpointFor builds node i's link endpoint with the given identities.
func (e *Env) endpointFor(i int, ids ...ident.NodeID) *mac.Endpoint {
	store := crypto.NewStore(e.Keys, ids...)
	radio := e.Medium.NewRadio(e.Dep.Nodes[i].Loc)
	return mac.NewEndpoint(e.Sched, radio, store, e.Src.Split(fmt.Sprintf("mac/%d", i)))
}

// A requester waits one second for a reply and re-sends an unanswered
// beacon request once (loss recovery).
const (
	requestTimeout sim.Time = sim.CPUHz
	requestRetries          = 1
)

// probe tracks one outstanding beacon request.
type probe struct {
	target ident.NodeID
	local  ident.NodeID // identity the request was sent under
	t1     sim.Time
	tries  int
	timer  sim.Handle
}

// replyInfo is the decoded beacon-signal content a requester evaluates.
type replyInfo struct {
	claimed    geo.Point
	turnaround uint32
}

// ProbeStats counts one requester's beacon request/reply exchanges.
type ProbeStats struct {
	// Probes is the number of request transmissions started, including
	// retries.
	Probes uint64 `json:"probes"`
	// Retries is the number of re-sends after a loss or CSMA drop.
	Retries uint64 `json:"retries"`
	// Replies is the number of matched beacon replies (completed
	// exchanges).
	Replies uint64 `json:"replies"`
	// Timeouts is the number of probes abandoned after all retries.
	Timeouts uint64 `json:"timeouts"`
}

// Merge adds another requester's counters field-wise.
func (s *ProbeStats) Merge(o ProbeStats) {
	s.Probes += o.Probes
	s.Retries += o.Retries
	s.Replies += o.Replies
	s.Timeouts += o.Timeouts
}

// requester is the shared request/reply machinery used by both detecting
// beacon nodes and sensors: it sends beacon requests, matches replies by
// echo sequence number and local identity, retries on loss, and captures
// the t1 timestamp the RTT computation needs.
type requester struct {
	env     *Env
	ep      *mac.Endpoint
	pending map[uint16]*probe
	// onObservation is invoked once per completed exchange.
	onObservation func(p *probe, d mac.Delivery, reply replyInfo)
	// Timeouts counts requests that were never answered after retries.
	Timeouts int
	stats    ProbeStats
}

func newRequester(env *Env, ep *mac.Endpoint) *requester {
	return &requester{env: env, ep: ep, pending: make(map[uint16]*probe)}
}

// request sends a beacon request to target under the given local identity.
func (r *requester) request(local, target ident.NodeID) {
	r.start(&probe{target: target, local: local})
}

func (r *requester) start(p *probe) {
	p.tries++
	r.stats.Probes++
	if p.tries > 1 {
		r.stats.Retries++
	}
	seq := r.ep.NextSeq()
	r.pending[seq] = p
	p.timer = r.env.Sched.After(requestTimeout, func() {
		if r.pending[seq] == p {
			r.retryOrFail(p, seq)
		}
	})
	r.ep.SendSeq(p.target, seq, packet.BeaconRequest{}, mac.SendOptions{
		Identity: p.local,
		OnSent: func(info phy.TxInfo, ok bool) {
			if !ok {
				if r.pending[seq] == p {
					r.retryOrFail(p, seq)
				}
				return
			}
			p.t1 = info.FirstByteSPDR
		},
	})
}

func (r *requester) retryOrFail(p *probe, seq uint16) {
	delete(r.pending, seq)
	p.timer.Cancel()
	if p.tries <= requestRetries {
		r.start(p)
		return
	}
	r.Timeouts++
	r.stats.Timeouts++
}

// handleReply matches a beacon reply to its outstanding probe; it returns
// false for unsolicited or duplicate replies.
func (r *requester) handleReply(d mac.Delivery, reply packet.BeaconReply) bool {
	p, ok := r.pending[reply.Echo]
	if !ok || p.local != d.Local || p.target != d.Pkt.Header.Src {
		return false
	}
	delete(r.pending, reply.Echo)
	p.timer.Cancel()
	r.stats.Replies++
	if r.onObservation != nil {
		r.onObservation(p, d, replyInfo{claimed: reply.Loc, turnaround: reply.Turnaround})
	}
	return true
}

// rtt computes RTT = (t4 - t1) - (t3 - t2) in cycles from the probe's
// request timestamp, the reply delivery, and the reported turnaround.
func rtt(p *probe, d mac.Delivery, turnaround uint32) float64 {
	return float64(d.FirstByteSPDR) - float64(p.t1) - float64(turnaround)
}

// observationFrom assembles the core.Observation for one exchange,
// running the node's wormhole detector.
func observationFrom(det *wormhole.Probabilistic, ownLoc geo.Point, ownKnown bool,
	p *probe, d mac.Delivery, reply replyInfo) core.Observation {
	return core.Observation{
		OwnLoc:           ownLoc,
		OwnKnown:         ownKnown,
		Claimed:          reply.claimed,
		MeasuredDist:     d.MeasuredDist,
		RTT:              rtt(p, d, reply.turnaround),
		WormholeDetected: det.Detect(d.Truth.Replayed, d.Truth.WormholeMark),
	}
}
