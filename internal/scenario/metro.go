package scenario

import (
	"context"
	"fmt"
	"math"
	"sync"

	"beaconsec/internal/deploy"
	"beaconsec/internal/metrics"
	"beaconsec/internal/rng"
	"beaconsec/internal/sim"
)

// The metro family scales the paper's detection workload to 100k–1M-node
// fields. Run cannot go there: it materializes a Deployment, builds every
// node's state machine, and retains per-node verdicts for the whole run —
// and the ident space caps out at ~65k IDs anyway. RunMetro instead keeps
// the workload memory-bounded end to end:
//
//   - The deployment is never materialized: deploy.MetroConfig streams
//     nodes chunk by chunk, and the field survives only as the
//     deploy.MetroGrid per-cell count summary.
//   - Per-node outcomes are never retained: every probe exchange folds
//     into constant-size accumulators (counters + fixed-bucket
//     histograms) the moment it resolves.
//   - Per-node randomness is index-split (rng.(*Source).MakeIndex, the
//     by-value SplitIndex), so results are independent of chunk size and
//     of everything but the seed.
//
// The probe model is the timer skeleton of the paper's §2 detection
// round: each node runs metroRounds probe exchanges against its local
// beacon neighborhood; a probe schedules a reply (which cancels the
// timeout) or is lost (the timeout fires); replies carry a
// declared-distance error that the ε_max consistency check flags. That
// is exactly the schedule/cancel/fire mix the event queue serves in a
// full run, at a pending-event population proportional to the node
// count.
//
// The kernel is space-partitioned (DESIGN.md §14): the streamed
// deployment is split into K contiguous index-range shards
// (deploy.ShardRanges), each shard owns a private sim.Scheduler with its
// own queue, depth histogram, and accumulators, and the shards advance in
// conservative lockstep windows of one probe timeout (the lookahead,
// metroTimeout) separated by barriers. K=1 is one shard behind a
// one-party barrier. Because probe chains are node-local and per-node
// rng is index-split, the partition cannot change any probe outcome:
// every identity-pinned field of MetroResult is byte-identical at any
// worker count (see MetroResult.Identity and
// TestRunMetroWorkerInvariance).

// MetroConfig parameterizes one metro-scale run. Start from MetroPaper:
// the probe protocol's shape is fixed by the constants below, so only the
// population, the seeds and the shard count vary.
type MetroConfig struct {
	// Deploy is the streamed deployment.
	Deploy deploy.MetroConfig
	// Workers requests the shard count: the run uses
	// K = len(Deploy.ShardRanges(Workers)) space-partitioned shards, each
	// on its own goroutine (K=1 for Workers ≤ 1, and fewer than Workers
	// when the population has fewer streaming chunks). It is a pure
	// performance knob excluded from cache-key material — the
	// identity-pinned fields of MetroResult (everything
	// MetroResult.Identity covers) are byte-identical at any worker count;
	// only the scheduler instrumentation (Sim.MaxPending, QueueDepth's
	// distribution) is per-shard, with the merge semantics documented on
	// MetroResult.
	Workers int `json:"-"`
	// Seed drives the probe randomness (placement comes from
	// Deploy.Seed).
	Seed uint64
}

// The metro probe protocol: three detection rounds, 2% probe loss,
// ε = 10 ft, and a 1.5·ε attack bias (a subtle attacker, not the
// unmistakable 5·ε default of the full scenario).
const (
	// metroRounds is the number of probe exchanges each node runs.
	metroRounds = 3
	// metroSpacing is the base virtual-time gap between a node's rounds
	// (each node jitters around it): 200 ms.
	metroSpacing sim.Time = 200 * sim.CPUHz / 1000
	// metroTimeout is the reply deadline of one probe, 20 ms. It doubles
	// as the kernel's conservative lookahead: no probe chain can affect
	// virtual times more than one metroTimeout past its current event.
	metroTimeout sim.Time = 20 * sim.CPUHz / 1000
	// metroLossRate is the probability a probe gets no reply.
	metroLossRate = 0.02
	// metroAttackBias is the distance enlargement of malicious replies
	// in feet.
	metroAttackBias = 15
	// metroMaxDistError is ε_max in feet (the consistency-check bound and
	// the benign ranging-error envelope).
	metroMaxDistError = 10
)

// MetroPaper returns the metro-scale configuration of n nodes at the
// paper's densities and §4 deployment mix, placed and probed from seed.
func MetroPaper(n int64, seed uint64) MetroConfig {
	return MetroConfig{Deploy: deploy.Metro(n, seed), Seed: seed}
}

// Validate returns an error for an invalid population or a negative
// worker count.
func (c MetroConfig) Validate() error {
	if err := c.Deploy.Validate(); err != nil {
		return err
	}
	if c.Workers < 0 {
		return fmt.Errorf("scenario: metro Workers = %d must be non-negative", c.Workers)
	}
	return nil
}

// MetroResult is a metro run's full accounting: population totals from
// the count grid, probe outcomes, flag counts by responder ground truth,
// and the scheduler's instrumentation. Everything here is deterministic
// in (Deploy.Seed, Seed, K).
//
// Worker-count semantics: every field MetroResult.Identity covers —
// population, probe/flag counters, FlagRate, the RTT histogram, and the
// Sim event/schedule/cancel totals — is additionally byte-identical at
// any Workers value. The remaining instrumentation merges per-shard with
// these documented semantics: Sim counters are summed across shards,
// Sim.MaxPending is the max over shards (each shard's private queue
// high-water mark, so it shrinks roughly by 1/K vs K=1),
// Sim.VirtualCycles is the max over shards and is rounded up to the last
// conservative epoch boundary at every K, and QueueDepth merges the
// per-shard depth histograms (total Count still equals the number of
// schedules, but the distribution reflects shard-local depths).
type MetroResult struct {
	// Population (from the deployment grid).
	Nodes     int64 `json:"nodes"`
	Beacons   int64 `json:"beacons"`
	Malicious int64 `json:"malicious"`

	// Probe outcomes.
	Probes          int64 `json:"probes"`
	Replies         int64 `json:"replies"`
	Timeouts        int64 `json:"timeouts"`
	MaliciousProbes int64 `json:"malicious_probes"`

	// FlaggedMalicious / FlaggedBenign count ε_max consistency-check hits
	// by responder ground truth; FlagRate = FlaggedMalicious /
	// MaliciousProbes.
	FlaggedMalicious int64   `json:"flagged_malicious"`
	FlaggedBenign    int64   `json:"flagged_benign"`
	FlagRate         float64 `json:"flag_rate"`

	// Sim is the scheduler snapshot (MaxPending is the standing event
	// population's high-water mark; per-shard at K > 1, see above).
	Sim sim.Stats `json:"sim"`
	// QueueDepth is the queue size observed after every schedule
	// (shard-local sizes at K > 1).
	QueueDepth *metrics.Histogram `json:"queue_depth"`
	// RTT is the reply round-trip distribution in cycles.
	RTT *metrics.Histogram `json:"rtt"`
}

// MetroIdentity is the projection of a MetroResult that is pinned
// byte-identical across worker counts. Tests, the extra-metro runner,
// and the CI parallel-identity leg all compare runs through this
// projection; the fields it omits (MaxPending, VirtualCycles, the depth
// distribution) are the per-shard instrumentation documented on
// MetroResult.
type MetroIdentity struct {
	Nodes     int64 `json:"nodes"`
	Beacons   int64 `json:"beacons"`
	Malicious int64 `json:"malicious"`

	Probes          int64 `json:"probes"`
	Replies         int64 `json:"replies"`
	Timeouts        int64 `json:"timeouts"`
	MaliciousProbes int64 `json:"malicious_probes"`

	FlaggedMalicious int64   `json:"flagged_malicious"`
	FlaggedBenign    int64   `json:"flagged_benign"`
	FlagRate         float64 `json:"flag_rate"`

	// Events/Scheduled/Cancelled are shard-summed scheduler totals; the
	// sums equal the K=1 counts exactly (the partition moves events
	// between schedulers, it never creates or destroys them).
	Events    uint64 `json:"events"`
	Scheduled uint64 `json:"scheduled"`
	Cancelled uint64 `json:"cancelled"`

	RTT *metrics.Histogram `json:"rtt"`
}

// Identity returns the worker-invariant projection of r.
func (r *MetroResult) Identity() MetroIdentity {
	return MetroIdentity{
		Nodes:            r.Nodes,
		Beacons:          r.Beacons,
		Malicious:        r.Malicious,
		Probes:           r.Probes,
		Replies:          r.Replies,
		Timeouts:         r.Timeouts,
		MaliciousProbes:  r.MaliciousProbes,
		FlaggedMalicious: r.FlaggedMalicious,
		FlaggedBenign:    r.FlaggedBenign,
		FlagRate:         r.FlagRate,
		Events:           r.Sim.Events,
		Scheduled:        r.Sim.Scheduled,
		Cancelled:        r.Sim.Cancelled,
		RTT:              r.RTT,
	}
}

// metroAccum is the constant-size accumulator one scheduler's probe
// chains fold into. Each shard owns one, and the kernel merges them in
// ascending shard order. All sums are exact (counters are integers and
// RTT observations are integral cycle counts far below 2^53), so the
// merge is associative and the merged totals equal the K=1 ones bit for
// bit.
type metroAccum struct {
	probes          int64
	replies         int64
	timeouts        int64
	maliciousProbes int64

	flaggedMalicious int64
	flaggedBenign    int64

	rtt *metrics.Histogram
}

func newMetroAccum() *metroAccum {
	return &metroAccum{rtt: metrics.NewHistogram(metrics.ExpBounds(64, 2, 16)...)}
}

// metroChain is one node's whole probe protocol: its own event, its rng
// stream (held by value, index-split from the shard root), the in-flight
// probe's outcome, the round counter, and its shard, whose scheduler and
// accumulator it uses. Every event the chain schedules
// fires the chain itself through Fire, so a probe exchange allocates
// nothing and makes no closure.
//
// The chain files its probes, replies and next probes on ev, its first
// field, so firing one touches the chain and nothing else. Only the
// probe timeout is pooled: it is the one event a chain cancels (on 98%
// of probes), its reply rides on ev meanwhile, and a second embedded
// event would cost every chain 48 bytes for a timeout that is queued
// about a tenth of the time. One step tag suffices because at most one
// of a chain's queued events is ever live: the reply fires at most
// metroTimeout/2 after its probe and cancels the timeout. So next always
// names the step the chain's live event runs.
type metroChain struct {
	ev   sim.Event
	src  rng.Source
	pMal float64 // local malicious fraction of beacons, from the grid

	// The in-flight probe, drawn when it fires.
	declaredErr float64
	rtt         sim.Time
	timeout     sim.Handle

	shard *metroShard

	round int
	next  metroStep
	isMal bool
}

// metroStep is what a chain's live event does when it fires.
type metroStep uint8

const (
	stepProbe   metroStep = iota // send the next probe
	stepReply                    // the probe's reply arrives
	stepTimeout                  // the probe was lost; its timeout fires
)

// addMetroNode wires one node's probe chain onto its shard's scheduler,
// folding outcomes into the shard's accumulator. This is the whole
// per-node protocol: the chain touches nothing but its own rng stream
// (index-split from the shard root), the read-only grid, and its shard's
// scheduler and accumulator — which is exactly why a node lands in a
// shard without changing any outcome.
func addMetroNode(s *metroShard, grid *deploy.MetroGrid, n deploy.MetroNode) {
	ch := &metroChain{src: s.root.MakeIndex(uint64(n.Index)), shard: s}
	if _, b, m := grid.CountsNear(n.Loc, deploy.MetroRange); b > 0 {
		ch.pMal = m / b
	}
	// Stagger the first round across one spacing window so the
	// field does not probe in lockstep.
	start := sim.Time(1 + ch.src.Uint64()%uint64(metroSpacing))
	s.sched.AtEvent(&ch.ev, start, ch)
}

// Fire runs the chain's live event.
func (ch *metroChain) Fire() {
	switch ch.next {
	case stepProbe:
		ch.probe()
	case stepReply:
		ch.reply()
	case stepTimeout:
		ch.shard.acc.timeouts++
		ch.done()
	}
}

// probe draws one probe's outcome and queues its timeout and, unless the
// probe is lost, its reply.
func (ch *metroChain) probe() {
	acc, sched := ch.shard.acc, ch.shard.sched
	acc.probes++
	ch.isMal = ch.src.Bool(ch.pMal)
	lost := ch.src.Bool(metroLossRate)
	ch.declaredErr = ch.src.Uniform(-metroMaxDistError, metroMaxDistError)
	if ch.isMal {
		acc.maliciousProbes++
		ch.declaredErr += metroAttackBias
	}
	ch.rtt = sim.Time(1 + ch.src.Intn(int(metroTimeout)/2)) // replies always beat the timeout
	ch.timeout = sched.AtHandler(sched.Now()+metroTimeout, ch)
	if lost {
		ch.next = stepTimeout
		return
	}
	ch.next = stepReply
	sched.AtEvent(&ch.ev, sched.Now()+ch.rtt, ch)
}

// reply folds an answered probe into the accumulator, applying the ε_max
// consistency check, and cancels the probe's timeout.
func (ch *metroChain) reply() {
	acc := ch.shard.acc
	acc.replies++
	acc.rtt.Observe(float64(ch.rtt))
	if math.Abs(ch.declaredErr) > metroMaxDistError {
		if ch.isMal {
			acc.flaggedMalicious++
		} else {
			acc.flaggedBenign++
		}
	}
	ch.timeout.Cancel()
	ch.done()
}

// done ends a round and, if rounds remain, queues the next probe one
// jittered spacing later.
func (ch *metroChain) done() {
	ch.round++
	if ch.round < metroRounds {
		gap := metroSpacing + sim.Time(ch.src.Uint64()%uint64(metroSpacing/4+1))
		ch.next = stepProbe
		sched := ch.shard.sched
		sched.AtEvent(&ch.ev, sched.Now()+gap, ch)
	}
}

// metroShard is one worker of the kernel: a contiguous index-range
// slice of the population on a private scheduler. Nothing it writes is
// shared — queue, depth histogram, accumulator, and the rng root
// (re-derived per shard from the seed) are all shard-local; the count
// grid is shared read-only.
type metroShard struct {
	sched *sim.Scheduler
	depth *metrics.Histogram
	acc   *metroAccum
	root  *rng.Source
	in    chan []deploy.MetroNode
	err   error
}

// epochBarrier synchronizes the shards' conservative time windows: no
// shard enters window w until every shard has retired window w-1. Each
// arrival carries the shard's pending-event count and its vote to quit
// (a cancelled context); the barrier resolves one collective verdict per
// generation, so every shard takes the same exit decision and nobody is
// left waiting — the classic conservative-parallel-DES lockstep
// (Chandy–Misra with a global lookahead instead of per-link null
// messages, which one metroTimeout horizon makes sufficient).
type epochBarrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	parties int
	waiting int
	gen     uint64

	pending int64
	quit    bool
	// verdict of the generation that last completed
	lastCont bool
	lastQuit bool
}

func newEpochBarrier(parties int) *epochBarrier {
	b := &epochBarrier{parties: parties}
	b.cond.L = &b.mu
	return b
}

// arrive blocks until all parties have arrived, then reports the
// collective verdict: cont is true iff some shard still has pending
// events and nobody voted to quit; aborted is true when a quit vote (a
// cancelled context) ended the run, distinguishing abort from a normal
// drain.
func (b *epochBarrier) arrive(pending int64, quit bool) (cont, aborted bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pending += pending
	b.quit = b.quit || quit
	b.waiting++
	if b.waiting == b.parties {
		b.lastCont = b.pending > 0 && !b.quit
		b.lastQuit = b.quit
		b.pending = 0
		b.quit = false
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return b.lastCont, b.lastQuit
	}
	gen := b.gen
	for gen == b.gen {
		b.cond.Wait()
	}
	return b.lastCont, b.lastQuit
}

// RunMetro executes one metro-scale run on
// K = len(cfg.Deploy.ShardRanges(cfg.Workers)) shards. Peak memory is
// O(nodes) only in the per-node state (one 152-byte metroChain, its event
// and rng stream inline) and the pooled probe timeouts (~0.11 per node
// at peak), never in retained results: accumulators are constant-size
// and the deployment exists only as its count grid. After a node is
// added, its probe exchanges allocate nothing. Cancelling ctx aborts
// the run — mid-stream or at the next epoch barrier — and returns the
// context's error.
func RunMetro(ctx context.Context, cfg MetroConfig) (*MetroResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	grid, err := cfg.Deploy.BuildGrid()
	if err != nil {
		return nil, err
	}
	k := len(cfg.Deploy.ShardRanges(cfg.Workers))
	shards := make([]*metroShard, k)
	for i := range shards {
		depth := sim.DepthHistogram()
		shards[i] = &metroShard{
			sched: sim.NewWithConfig(sim.Config{Depth: depth}),
			depth: depth,
			acc:   newMetroAccum(),
			root:  rng.New(cfg.Seed).Split("metro-probes"),
			in:    make(chan []deploy.MetroNode, 2),
		}
	}

	// Producer: one pass over the stream in index order, routing a copy
	// of each chunk to its owning shard (Stream reuses the chunk slice).
	// Chunk-aligned shard ranges mean a chunk never splits.
	var streamErr error
	go func() {
		defer func() {
			for _, s := range shards {
				close(s.in)
			}
		}()
		streamErr = cfg.Deploy.StreamShards(k, func(shard int, chunk []deploy.MetroNode) error {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			buf := make([]deploy.MetroNode, len(chunk))
			copy(buf, chunk)
			select {
			case shards[shard].in <- buf:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
	}()

	// Shard workers: ingest the shard's nodes (scheduling each chain in
	// index order), then advance in conservative lockstep windows of one
	// lookahead until the global pending population drains. Today no
	// event crosses shards — probe chains are node-local — so the barrier
	// never changes an outcome; it is the interface that stays correct
	// when a future protocol stack injects cross-shard events with
	// horizon ≥ lookahead. At K=1 it is one lock per epoch and doubles as
	// the cancellation check.
	barrier := newEpochBarrier(k)
	var wg sync.WaitGroup
	for _, s := range shards {
		wg.Add(1)
		go func(s *metroShard) {
			defer wg.Done()
			for chunk := range s.in {
				for i := range chunk {
					addMetroNode(s, grid, chunk[i])
				}
			}
			for epoch := uint64(1); ; epoch++ {
				cont, aborted := barrier.arrive(s.sched.Pending(), ctx.Err() != nil)
				if !cont {
					if aborted {
						if s.err = ctx.Err(); s.err == nil {
							s.err = context.Canceled
						}
					}
					break
				}
				s.sched.RunUntil(sim.Time(epoch) * metroTimeout)
			}
		}(s)
	}
	wg.Wait()

	if streamErr != nil {
		return nil, fmt.Errorf("scenario: metro stream: %w", streamErr)
	}
	for _, s := range shards {
		if s.err != nil {
			return nil, fmt.Errorf("scenario: metro run: %w", s.err)
		}
	}

	accs := make([]*metroAccum, k)
	stats := make([]sim.Stats, k)
	depths := make([]*metrics.Histogram, k)
	for i, s := range shards {
		accs[i] = s.acc
		stats[i] = s.sched.Stats()
		depths[i] = s.depth
	}
	return assembleMetroResult(grid, accs, stats, depths), nil
}

// assembleMetroResult merges per-shard accumulators into the final
// result in ascending shard order. With one shard this is that shard's
// result verbatim; with many, the identity-pinned fields merge exactly
// (integer sums and integral histogram observations) and the scheduler
// instrumentation merges per the semantics documented on MetroResult
// (counter sums, max of MaxPending and VirtualCycles, depth-histogram
// bucket sums).
func assembleMetroResult(grid *deploy.MetroGrid, accs []*metroAccum, stats []sim.Stats, depths []*metrics.Histogram) *MetroResult {
	res := &MetroResult{
		Nodes:      grid.TotalNodes,
		Beacons:    grid.TotalBeacons,
		Malicious:  grid.TotalMalicious,
		QueueDepth: depths[0].Clone(),
		RTT:        accs[0].rtt.Clone(),
	}
	res.Sim = stats[0]
	for i := 1; i < len(accs); i++ {
		res.QueueDepth.Merge(depths[i])
		res.RTT.Merge(accs[i].rtt)
		res.Sim.Merge(stats[i])
	}
	for _, a := range accs {
		res.Probes += a.probes
		res.Replies += a.replies
		res.Timeouts += a.timeouts
		res.MaliciousProbes += a.maliciousProbes
		res.FlaggedMalicious += a.flaggedMalicious
		res.FlaggedBenign += a.flaggedBenign
	}
	if res.MaliciousProbes > 0 {
		res.FlagRate = float64(res.FlaggedMalicious) / float64(res.MaliciousProbes)
	}
	return res
}
