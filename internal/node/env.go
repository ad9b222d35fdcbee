// Package node implements the protocol state machines that run on each
// deployed mote: benign beacon nodes (which also act as detecting nodes
// under their detecting pseudonyms), malicious beacon nodes driven by the
// paper's (p_n, p_w, p_l) strategy, non-beacon sensor nodes that collect
// location references through the replay filters and localize, and a
// standalone replay attacker for false-positive experiments.
package node

import (
	"slices"

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
	return wormhole.NewProbabilistic(e.WormholeRate, e.Src.MakeSplit("whdet", uint64(i)))
}

// endpointFor builds node i's link endpoint with the given identities.
func (e *Env) endpointFor(i int, ids ...ident.NodeID) *mac.Endpoint {
	store := crypto.NewStore(e.Keys, ids...)
	radio := e.Medium.NewRadio(e.Dep.Nodes[i].Loc)
	return mac.NewEndpoint(e.Sched, radio, store, e.Src.MakeSplit("mac", uint64(i)))
}

// A requester waits one second for a reply and re-sends an unanswered
// beacon request once (loss recovery).
const (
	requestTimeout sim.Time = sim.CPUHz
	requestRetries          = 1
)

// request is one scheduled beacon request: whom to ask and under which
// identity. A node's requests are allocated together when they are
// scheduled (requester.schedule), and each starts from its own event.
type request struct {
	ev     sim.Event
	r      *requester
	target ident.NodeID
	local  ident.NodeID
}

// Fire starts the request's probe, unless its target is revoked by then.
func (q *request) Fire() {
	r := q.r
	if r.revoked[q.target] {
		return
	}
	p := r.newProbe()
	p.target, p.local = q.target, q.local
	r.start(p)
}

// probe is one outstanding beacon request, from its first transmission
// to its reply or its last timeout: whom it asks, under which identity,
// and the state of its latest transmission. Probes are pooled on their
// requester. Each one is the handler of its own timeouts, pooled events
// it can cancel, and learns of its transmissions as their mac.Done.
type probe struct {
	r      *requester
	target ident.NodeID
	local  ident.NodeID // identity the request is sent under
	seq    uint16       // sequence number of the latest transmission
	tries  int
	t1     sim.Time
	timer  sim.Handle
}

// Fire handles the probe's timeout.
func (p *probe) Fire() {
	if p.r.outstanding(p.seq) == p {
		p.r.retryOrFail(p)
	}
}

// Sent records the t1 of a transmitted request, and retries or gives up
// on one that CSMA dropped.
func (p *probe) Sent(seq uint16, info phy.TxInfo, ok bool) {
	if ok {
		p.t1 = info.FirstByteSPDR
	} else if p.r.outstanding(seq) == p {
		p.r.retryOrFail(p)
	}
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
	env *Env
	ep  *mac.Endpoint
	// pending lists the outstanding probes, at most a few at a time.
	pending []*probe
	// revoked lists targets a request no longer starts a probe for: a
	// sensor's revoked beacons, nil for a beacon.
	revoked map[ident.NodeID]bool
	// free recycles finished probes.
	free []*probe
	// onObservation is invoked once per completed exchange.
	onObservation func(p *probe, d mac.Delivery, reply replyInfo)
	// Timeouts counts requests that were never answered after retries.
	Timeouts int
	stats    ProbeStats
}

func newRequester(env *Env, ep *mac.Endpoint) *requester {
	return &requester{env: env, ep: ep}
}

// schedule makes one request per (target, local) pair, targets outer,
// and files each one's start at an offset drawn from src, uniform over
// [now, now+window).
func (r *requester) schedule(src *rng.Source, window sim.Time, targets, locals []ident.NodeID) {
	reqs := make([]request, len(targets)*len(locals))
	now := r.env.Sched.Now()
	for i := range reqs {
		q := &reqs[i]
		q.r = r
		q.target, q.local = targets[i/len(locals)], locals[i%len(locals)]
		r.env.Sched.AtEvent(&q.ev, now+sim.Time(src.Uint64()%uint64(window)), q)
	}
}

// newProbe returns a cleared probe from the pool, or a new one.
func (r *requester) newProbe() *probe {
	if n := len(r.free); n > 0 {
		p := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		*p = probe{r: r}
		return p
	}
	return &probe{r: r}
}

func (r *requester) start(p *probe) {
	p.tries++
	r.stats.Probes++
	if p.tries > 1 {
		r.stats.Retries++
	}
	p.seq = r.ep.NextSeq()
	r.pending = append(r.pending, p)
	p.timer = r.env.Sched.AtHandler(r.env.Sched.Now()+requestTimeout, p)
	r.ep.SendSeq(p.target, p.seq, packet.BeaconRequest{}, mac.SendOptions{Identity: p.local, Done: p})
}

// outstanding returns the outstanding probe whose latest transmission
// has sequence number seq, or nil.
func (r *requester) outstanding(seq uint16) *probe {
	for _, p := range r.pending {
		if p.seq == seq {
			return p
		}
	}
	return nil
}

// settle takes p off the outstanding list and cancels its timeout.
func (r *requester) settle(p *probe) {
	i := slices.Index(r.pending, p)
	last := len(r.pending) - 1
	r.pending[i] = r.pending[last]
	r.pending[last] = nil
	r.pending = r.pending[:last]
	p.timer.Cancel()
}

func (r *requester) retryOrFail(p *probe) {
	r.settle(p)
	if p.tries <= requestRetries {
		r.start(p)
		return
	}
	r.Timeouts++
	r.stats.Timeouts++
	r.free = append(r.free, p)
}

// handleReply matches a beacon reply to its outstanding probe; it returns
// false for unsolicited or duplicate replies.
func (r *requester) handleReply(d mac.Delivery, reply packet.BeaconReply) bool {
	p := r.outstanding(reply.Echo)
	if p == nil || p.local != d.Local || p.target != d.Pkt.Header.Src {
		return false
	}
	r.settle(p)
	r.stats.Replies++
	if r.onObservation != nil {
		r.onObservation(p, d, replyInfo{claimed: reply.Loc, turnaround: reply.Turnaround})
	}
	r.free = append(r.free, p)
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
