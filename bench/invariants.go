package main

import (
	"fmt"
	"sort"
	"time"

	"beaconsec/internal/ident"
	"beaconsec/internal/revnet"
	"beaconsec/internal/revoke"
)

// request is one revocation request a client sent and the reply it got.
type request struct {
	reporter, target ident.NodeID
	query            bool
	outcome          revoke.Outcome // the reply to an alert
	revoked          bool           // the reply to a query
	failed           bool
	latency          time.Duration
}

func accepted(o revoke.Outcome) bool {
	return o == revoke.OutcomeAccepted || o == revoke.OutcomeRevoked
}

// checkRevocation checks the paper's §3 counter invariants of one
// revoke-uplink run, from the clients' request log and the server's final
// status snapshot:
//
//   - every reporter has at most τ+1 accepted alerts;
//   - every revoked target has exactly τ′+1 accepted alerts, from τ′+1
//     distinct reporters, and no other target has more than τ′;
//   - the final revoked set equals the targets that got a revoked reply,
//     each exactly once;
//   - the station handled every alert sent, served every query sent, and
//     read one frame per request.
//
// It returns one line per violated invariant.
func checkRevocation(log []request, snap revnet.StatusSnapshot) []string {
	tau, tauPrime := snap.Revoke.ReportCap, snap.Revoke.AlertThreshold
	perReporter := map[ident.NodeID]int{}
	perTarget := map[ident.NodeID]map[ident.NodeID]int{}
	revokedReplies := map[ident.NodeID]int{}
	var alerts, queries uint64
	for _, r := range log {
		if r.query {
			queries++
			continue
		}
		alerts++
		if r.failed || !accepted(r.outcome) {
			continue
		}
		perReporter[r.reporter]++
		if perTarget[r.target] == nil {
			perTarget[r.target] = map[ident.NodeID]int{}
		}
		perTarget[r.target][r.reporter]++
		if r.outcome == revoke.OutcomeRevoked {
			revokedReplies[r.target]++
		}
	}

	var out []string
	violation := func(what string, bad []string) {
		if len(bad) == 0 {
			return
		}
		sort.Strings(bad)
		out = append(out, fmt.Sprintf("%s: %d violations, first %v", what, len(bad), bad[:min(3, len(bad))]))
	}

	var bad []string
	for rep, n := range perReporter {
		if n > tau+1 {
			bad = append(bad, fmt.Sprintf("%v has %d", rep, n))
		}
	}
	violation(fmt.Sprintf("reporters over τ+1=%d accepted alerts", tau+1), bad)

	revoked := map[ident.NodeID]bool{}
	for _, id := range snap.Revoked {
		revoked[id] = true
	}
	bad = nil
	for target, reporters := range perTarget {
		n := 0
		for _, c := range reporters {
			n += c
		}
		switch {
		case revoked[target] && (n != tauPrime+1 || len(reporters) != tauPrime+1):
			bad = append(bad, fmt.Sprintf("revoked %v has %d accepted alerts from %d reporters", target, n, len(reporters)))
		case !revoked[target] && n > tauPrime:
			bad = append(bad, fmt.Sprintf("unrevoked %v has %d accepted alerts", target, n))
		}
	}
	for target := range revoked {
		if perTarget[target] == nil {
			bad = append(bad, fmt.Sprintf("revoked %v has no accepted alert", target))
		}
	}
	violation(fmt.Sprintf("targets without exactly τ′+1=%d accepted alerts from distinct reporters at revocation", tauPrime+1), bad)

	bad = nil
	for target, n := range revokedReplies {
		if !revoked[target] || n != 1 {
			bad = append(bad, fmt.Sprintf("%v: %d revoked replies, in final set %v", target, n, revoked[target]))
		}
	}
	for target := range revoked {
		if revokedReplies[target] == 0 {
			bad = append(bad, fmt.Sprintf("%v: in final set without a revoked reply", target))
		}
	}
	violation("final revoked set differs from the revoked replies", bad)

	bad = nil
	if snap.Station.Handled != alerts {
		bad = append(bad, fmt.Sprintf("station handled %d alerts, %d sent", snap.Station.Handled, alerts))
	}
	if snap.Net.QueriesServed != queries {
		bad = append(bad, fmt.Sprintf("%d queries served, %d sent", snap.Net.QueriesServed, queries))
	}
	if snap.Net.FramesIn != alerts+queries {
		bad = append(bad, fmt.Sprintf("%d frames in, %d requests sent", snap.Net.FramesIn, alerts+queries))
	}
	violation("server counters differ from requests sent", bad)
	return out
}
