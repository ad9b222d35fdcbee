package revoke

import (
	"fmt"
	"sort"
	"sync"

	"beaconsec/internal/ident"
)

// Sharded is the paper's §3 base station. HandleAlert applies one
// authenticated alert (reporter accuses target) by this check sequence:
//
//  1. a self-report (reporter == target) is ignored;
//  2. an alert against an already revoked target is ignored; the
//     reporter's own revocation is deliberately not checked (a revoked
//     detecting node's alerts are still accepted);
//  3. a repeat of an accepted (reporter, target) pair is ignored, so
//     retransmission cannot inflate the counters;
//  4. an alert from a reporter whose report counter exceeds τ is
//     ignored;
//  5. otherwise the alert is accepted: the reporter's report counter and
//     the target's alert counter each rise by one, and the target is
//     revoked once its alert counter exceeds τ′.
//
// The state is split across 2^k lock shards so concurrent HandleAlert
// calls for unrelated nodes never contend on one mutex:
//
//   - target-keyed state (alert counters, the revoked set, the
//     (reporter, target) dedup set, outcome stats) shards by target ID;
//   - reporter-keyed state (the τ report budget) shards by reporter ID in
//     a separate shard array, because one reporter's budget spans every
//     target shard.
//
// HandleAlert locks one reporter shard, then one target shard — always in
// that order, and never a second shard of either kind — so the lock graph
// is bipartite and deadlock-free. A serial stream of alerts gets the same
// outcomes at every shard count (pinned by test against a serial
// reference); under concurrency, outcomes for racing alerts depend on
// arrival order exactly as they would for a single-mutex station. The
// simulation runs one shard; the networked service runs many.
type Sharded struct {
	cfg  Config
	mask uint16

	cbMu     sync.Mutex
	onRevoke []func(ident.NodeID)

	reporters []reporterShard
	targets   []targetShard
}

type reporterShard struct {
	mu      sync.Mutex
	reports map[ident.NodeID]int
	_       [40]byte // pad to a cache line so neighboring shards don't false-share
}

type targetShard struct {
	mu      sync.Mutex
	alerts  map[ident.NodeID]int
	revoked map[ident.NodeID]bool
	seen    map[pair]bool
	stats   Stats
}

type pair struct {
	reporter, target ident.NodeID
}

// MaxShards bounds the shard count: shards are indexed by the low 16 bits
// of a NodeID, so any beyond 2^16 would never be used.
const MaxShards = 1 << 16

// NewSharded constructs a station with at least the given shard count,
// rounded up to a power of two. It panics on an invalid configuration or
// a shard count outside [1, MaxShards] (thresholds and shard counts are
// deployment constants, never runtime input).
func NewSharded(cfg Config, shards int) *Sharded {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if shards < 1 || shards > MaxShards {
		panic(fmt.Sprintf("revoke: shard count %d outside [1, %d]", shards, MaxShards))
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &Sharded{
		cfg:       cfg,
		mask:      uint16(n - 1),
		reporters: make([]reporterShard, n),
		targets:   make([]targetShard, n),
	}
	for i := range s.reporters {
		s.reporters[i].reports = make(map[ident.NodeID]int)
	}
	for i := range s.targets {
		s.targets[i].alerts = make(map[ident.NodeID]int)
		s.targets[i].revoked = make(map[ident.NodeID]bool)
		s.targets[i].seen = make(map[pair]bool)
	}
	return s
}

// NumShards returns the shard count (a power of two).
func (s *Sharded) NumShards() int { return len(s.targets) }

// OnRevoke registers a callback invoked (synchronously, in HandleAlert,
// outside the shard locks) whenever a node is revoked. Callbacks must be
// safe for concurrent invocation when HandleAlert is called concurrently.
func (s *Sharded) OnRevoke(fn func(ident.NodeID)) {
	s.cbMu.Lock()
	defer s.cbMu.Unlock()
	s.onRevoke = append(s.onRevoke, fn)
}

// HandleAlert processes one authenticated alert (reporter accuses target)
// per the paper's algorithm and returns what happened. It is safe for
// concurrent use from any number of goroutines.
func (s *Sharded) HandleAlert(reporter, target ident.NodeID) Outcome {
	rs := &s.reporters[uint16(reporter)&s.mask]
	ts := &s.targets[uint16(target)&s.mask]
	rs.mu.Lock()
	ts.mu.Lock()
	out := s.apply(rs, ts, reporter, target)
	ts.stats.record(out)
	ts.mu.Unlock()
	rs.mu.Unlock()
	if out != OutcomeRevoked {
		return out
	}
	s.cbMu.Lock()
	callbacks := make([]func(ident.NodeID), len(s.onRevoke))
	copy(callbacks, s.onRevoke)
	s.cbMu.Unlock()
	for _, fn := range callbacks {
		fn(target)
	}
	return out
}

// apply runs the check sequence listed on Sharded under the caller's
// shard locks.
func (s *Sharded) apply(rs *reporterShard, ts *targetShard, reporter, target ident.NodeID) Outcome {
	if reporter == target {
		return OutcomeSelfReport
	}
	// Reporter revocation is deliberately not checked (paper §3: a
	// revoked detecting node's alerts are still accepted).
	if ts.revoked[target] {
		return OutcomeAlreadyRevoked
	}
	if ts.seen[pair{reporter, target}] {
		return OutcomeDuplicate
	}
	if rs.reports[reporter] > s.cfg.ReportCap {
		return OutcomeReporterCapped
	}
	ts.seen[pair{reporter, target}] = true
	rs.reports[reporter]++
	ts.alerts[target]++
	if ts.alerts[target] <= s.cfg.AlertThreshold {
		return OutcomeAccepted
	}
	ts.revoked[target] = true
	return OutcomeRevoked
}

// Revoked reports whether id has been revoked.
func (s *Sharded) Revoked(id ident.NodeID) bool {
	ts := &s.targets[uint16(id)&s.mask]
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.revoked[id]
}

// RevokedSet returns the sorted list of revoked node IDs. Shards are
// visited one at a time, so under concurrent ingest the set is a
// per-shard-consistent sample, not a global atomic snapshot; after ingest
// quiesces it is exact.
func (s *Sharded) RevokedSet() []ident.NodeID {
	var out []ident.NodeID
	for i := range s.targets {
		ts := &s.targets[i]
		ts.mu.Lock()
		for id := range ts.revoked {
			out = append(out, id)
		}
		ts.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AlertCount returns the current alert counter of id.
func (s *Sharded) AlertCount(id ident.NodeID) int {
	ts := &s.targets[uint16(id)&s.mask]
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.alerts[id]
}

// Stats returns the outcome counters summed across shards (same sampling
// caveat as RevokedSet under concurrent ingest).
func (s *Sharded) Stats() Stats {
	var sum Stats
	for i := range s.targets {
		ts := &s.targets[i]
		ts.mu.Lock()
		sum.Merge(ts.stats)
		ts.mu.Unlock()
	}
	return sum
}

// ShardLoad is one target shard's outcome counters, tagged with the
// shard's index.
type ShardLoad struct {
	Shard int `json:"shard"`
	Stats
}

// LoadedShards returns the outcome counters of every target shard that
// has handled an alert, in shard order — the per-shard load view the
// revnet status endpoint exposes so a skewed alert distribution is
// visible operationally. Idle shards are left out, so an idle station
// reports nothing at any shard count.
func (s *Sharded) LoadedShards() []ShardLoad {
	var out []ShardLoad
	for i := range s.targets {
		ts := &s.targets[i]
		ts.mu.Lock()
		if ts.stats != (Stats{}) {
			out = append(out, ShardLoad{Shard: i, Stats: ts.stats})
		}
		ts.mu.Unlock()
	}
	return out
}
