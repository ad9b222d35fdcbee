package scenario

import (
	"context"
	"fmt"
	"math"
	"slices"
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
// (deploy.ShardRanges), and each shard owns a private sim.Scheduler, rng
// root and MetroResult. The shards share nothing they write, only the
// read-only count grid: each ingests its chunks and then runs its own
// windows of one probe timeout until its queue drains. Because probe
// chains are node-local and per-node rng is index-split, the partition
// cannot change any probe outcome: every identity-pinned field of
// MetroResult is byte-identical at any worker count (see
// MetroResult.Identity and TestRunMetroWorkerInvariance).

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
	// performance knob: the identity-pinned fields of MetroResult
	// (everything MetroResult.Identity covers) are byte-identical at any
	// worker count; only the scheduler instrumentation (Sim.MaxPending,
	// QueueDepth's distribution) is per-shard, with the merge semantics
	// documented on MetroResult.
	Workers int
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
	// metroTimeout is the reply deadline of one probe, 20 ms. It is also
	// the length of a shard's run window: a shard checks for cancellation
	// before each.
	metroTimeout sim.Time = 20 * sim.CPUHz / 1000
	// metroLossRate is the probability a probe gets no reply.
	metroLossRate = 0.02
	// metroAttackBias is the distance enlargement of malicious replies
	// in feet.
	metroAttackBias = 15
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
// Sim.VirtualCycles is the max over shards of each shard's clock, which
// stops at the end of its last window (how many windows a shard runs
// depends on the partition: RunUntil discards a cancelled event past its
// deadline when it trails another cancelled event, and which events
// trail which differs by shard), and QueueDepth merges the per-shard
// depth histograms (total Count still equals the number of schedules,
// but the distribution reflects shard-local depths).
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

// metroChain is one node's whole probe protocol: its own event, its rng
// stream (held by value, index-split from the shard root), the in-flight
// probe's outcome, the round counter, and its shard, whose scheduler and
// result it uses. Every event the chain schedules
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
// folding outcomes into the shard's result. This is the whole per-node
// protocol: the chain touches nothing but its own rng stream
// (index-split from the shard root), the read-only grid, and its shard's
// scheduler and result — which is exactly why a node lands in a shard
// without changing any outcome.
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
		ch.shard.res.Timeouts++
		ch.done()
	}
}

// probe draws one probe's outcome and queues its timeout and, unless the
// probe is lost, its reply.
func (ch *metroChain) probe() {
	res, sched := &ch.shard.res, ch.shard.sched
	res.Probes++
	ch.isMal = ch.src.Bool(ch.pMal)
	lost := ch.src.Bool(metroLossRate)
	ch.declaredErr = ch.src.Uniform(-MaxDistError, MaxDistError)
	if ch.isMal {
		res.MaliciousProbes++
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

// reply folds an answered probe into the shard's result, applying the
// ε_max consistency check, and cancels the probe's timeout.
func (ch *metroChain) reply() {
	res := &ch.shard.res
	res.Replies++
	res.RTT.Observe(float64(ch.rtt))
	if math.Abs(ch.declaredErr) > MaxDistError {
		if ch.isMal {
			res.FlaggedMalicious++
		} else {
			res.FlaggedBenign++
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
// shared — queue, result (its depth histogram included) and the rng root
// (re-derived per shard from the seed) are all shard-local; the count
// grid is shared read-only.
type metroShard struct {
	sched *sim.Scheduler
	root  *rng.Source
	in    chan []deploy.MetroNode
	err   error
	res   MetroResult
}

// run ingests the shard's chunks, scheduling each node's chain in index
// order, then runs windows of one metroTimeout until the queue drains,
// checking ctx before each window.
func (s *metroShard) run(ctx context.Context, grid *deploy.MetroGrid) {
	for chunk := range s.in {
		for i := range chunk {
			addMetroNode(s, grid, chunk[i])
		}
	}
	for end := metroTimeout; s.sched.Pending() > 0; end += metroTimeout {
		if s.err = ctx.Err(); s.err != nil {
			return
		}
		s.sched.RunUntil(end)
	}
	s.res.Sim = s.sched.Stats()
}

// merge folds another shard's result into r. Counters and histogram
// buckets sum exactly (RTT observations are integral cycle counts far
// below 2^53), and sim.Stats.Merge sums the scheduler counters and keeps
// the max of MaxPending and VirtualCycles.
func (r *MetroResult) merge(o *MetroResult) {
	r.Probes += o.Probes
	r.Replies += o.Replies
	r.Timeouts += o.Timeouts
	r.MaliciousProbes += o.MaliciousProbes
	r.FlaggedMalicious += o.FlaggedMalicious
	r.FlaggedBenign += o.FlaggedBenign
	r.Sim.Merge(o.Sim)
	r.QueueDepth.Merge(o.QueueDepth)
	r.RTT.Merge(o.RTT)
}

// RunMetro executes one metro-scale run on
// K = len(cfg.Deploy.ShardRanges(cfg.Workers)) shards, each on its own
// goroutine, and merges their results in ascending shard order. Peak
// memory is O(nodes) only in the per-node state (one 152-byte
// metroChain, its event and rng stream inline) and the pooled probe
// timeouts (~0.11 per node at peak), never in retained results: results
// are constant-size and the deployment exists only as its count grid.
// After a node is added, its probe exchanges allocate nothing.
// Cancelling ctx aborts the run — mid-stream or before a shard's next
// window — and returns the context's error; a context cancelled after
// every shard has drained yields the finished result.
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
	var wg sync.WaitGroup
	for i := range shards {
		depth := sim.DepthHistogram()
		s := &metroShard{
			sched: sim.NewWithConfig(sim.Config{Depth: depth}),
			root:  rng.New(cfg.Seed).Split("metro-probes"),
			in:    make(chan []deploy.MetroNode, 2), // two queued chunks let the stream run ahead of the ingest
			res:   MetroResult{QueueDepth: depth, RTT: metrics.NewHistogram(metrics.ExpBounds(64, 2, 16)...)},
		}
		shards[i] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.run(ctx, grid)
		}()
	}

	// One pass over the stream in index order, routing a copy of each
	// chunk to its owning shard (Stream reuses the chunk slice).
	// Chunk-aligned shard ranges mean a chunk never splits.
	err = cfg.Deploy.StreamShards(k, func(shard int, chunk []deploy.MetroNode) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		select {
		case shards[shard].in <- slices.Clone(chunk):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	for _, s := range shards {
		close(s.in)
	}
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("scenario: metro stream: %w", err)
	}
	for _, s := range shards {
		if s.err != nil {
			return nil, fmt.Errorf("scenario: metro run: %w", s.err)
		}
	}

	res := shards[0].res
	for _, s := range shards[1:] {
		res.merge(&s.res)
	}
	res.Nodes, res.Beacons, res.Malicious = grid.TotalNodes, grid.TotalBeacons, grid.TotalMalicious
	if res.MaliciousProbes > 0 {
		res.FlagRate = float64(res.FlaggedMalicious) / float64(res.MaliciousProbes)
	}
	return &res, nil
}
