package revoke

import (
	"sort"

	"beaconsec/internal/ident"
)

// BaseStation is the serial reference for Sharded: the §3 algorithm over
// plain maps, one alert at a time, with no locks and no shards. The
// differential tests replay one alert stream into both and require the
// same outcome for every alert and the same state afterwards.
type BaseStation struct {
	cfg     Config
	reports map[ident.NodeID]int
	alerts  map[ident.NodeID]int
	revoked map[ident.NodeID]bool
	seen    map[pair]bool
	stats   Stats
}

// NewBaseStation constructs the reference; like NewSharded it panics on an
// invalid configuration, so the two are never compared on thresholds the
// production station refuses.
func NewBaseStation(cfg Config) *BaseStation {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	return &BaseStation{
		cfg:     cfg,
		reports: make(map[ident.NodeID]int),
		alerts:  make(map[ident.NodeID]int),
		revoked: make(map[ident.NodeID]bool),
		seen:    make(map[pair]bool),
	}
}

// HandleAlert applies one alert and records its outcome.
func (bs *BaseStation) HandleAlert(reporter, target ident.NodeID) Outcome {
	out := bs.apply(reporter, target)
	bs.stats.record(out)
	return out
}

func (bs *BaseStation) apply(reporter, target ident.NodeID) Outcome {
	if reporter == target {
		return OutcomeSelfReport
	}
	// "the alert from a revoked detecting node will still be accepted"
	// — revocation of the reporter is deliberately not checked.
	if bs.revoked[target] {
		return OutcomeAlreadyRevoked
	}
	if bs.seen[pair{reporter, target}] {
		return OutcomeDuplicate
	}
	if bs.reports[reporter] > bs.cfg.ReportCap {
		return OutcomeReporterCapped
	}
	bs.seen[pair{reporter, target}] = true
	bs.reports[reporter]++
	bs.alerts[target]++
	if bs.alerts[target] <= bs.cfg.AlertThreshold {
		return OutcomeAccepted
	}
	bs.revoked[target] = true
	return OutcomeRevoked
}

// RevokedSet returns the sorted list of revoked node IDs.
func (bs *BaseStation) RevokedSet() []ident.NodeID {
	var out []ident.NodeID
	for id := range bs.revoked {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
