package main

import (
	"strings"
	"testing"

	"beaconsec/internal/ident"
	"beaconsec/internal/revnet"
	"beaconsec/internal/revoke"
)

// serialRun feeds one epoch of the generated traffic of two connections
// through one station, the way the server would see it, and returns the
// log and the matching snapshot.
func serialRun(n int) ([]request, revnet.StatusSnapshot) {
	st := revoke.NewSharded(revokedConfig, revokedShards)
	gens := []*requestGen{newRequestGen(3, 0, 0), newRequestGen(3, 0, 1)}
	var log []request
	var queries uint64
	for i := 0; i < n; i++ {
		c := i % 2
		reporter := ident.NodeID(reporterBase + c + 2*(i/(2*sessionRequests)))
		query, target := gens[c].next()
		r := request{reporter: reporter, target: target, query: query}
		if query {
			r.revoked = st.Revoked(target)
			queries++
		} else {
			r.outcome = st.HandleAlert(reporter, target)
		}
		log = append(log, r)
	}
	return log, revnet.StatusSnapshot{
		Revoke:  revokedConfig,
		Revoked: st.RevokedSet(),
		Station: st.Stats(),
		Net:     revnet.Snapshot{QueriesServed: queries, FramesIn: uint64(n)},
	}
}

func TestCheckRevocationAcceptsAConsistentRun(t *testing.T) {
	log, snap := serialRun(fullSizes.revokeEpoch)
	if v := checkRevocation(log, snap); len(v) != 0 {
		t.Fatalf("violations on a consistent run: %v", v)
	}
	outcomes := map[revoke.Outcome]bool{}
	for _, r := range log {
		if !r.query {
			outcomes[r.outcome] = true
		}
	}
	for _, o := range []revoke.Outcome{revoke.OutcomeAccepted, revoke.OutcomeRevoked,
		revoke.OutcomeReporterCapped, revoke.OutcomeAlreadyRevoked, revoke.OutcomeDuplicate} {
		if !outcomes[o] {
			t.Errorf("the traffic mix never produced outcome %v", o)
		}
	}
}

func alert(reporter, target ident.NodeID, o revoke.Outcome) request {
	return request{reporter: reporter, target: target, outcome: o}
}

// TestCheckRevocationViolations feeds one hand-built log per invariant.
func TestCheckRevocationViolations(t *testing.T) {
	cfg := revoke.Config{ReportCap: 1, AlertThreshold: 1}
	snap := func(revoked []ident.NodeID, log []request) revnet.StatusSnapshot {
		var alerts, queries uint64
		for _, r := range log {
			if r.query {
				queries++
			} else {
				alerts++
			}
		}
		return revnet.StatusSnapshot{
			Revoke:  cfg,
			Revoked: revoked,
			Station: revoke.Stats{Handled: alerts},
			Net:     revnet.Snapshot{QueriesServed: queries, FramesIn: alerts + queries},
		}
	}
	ok := revoke.OutcomeAccepted
	cases := []struct {
		name string
		log  []request
		snap func([]request) revnet.StatusSnapshot
		want string
	}{
		{
			name: "reporter over its budget",
			log:  []request{alert(1, 10, ok), alert(1, 11, ok), alert(1, 12, ok)},
			snap: func(l []request) revnet.StatusSnapshot { return snap(nil, l) },
			want: "reporters over τ+1=2",
		},
		{
			name: "revoked by one reporter twice",
			log:  []request{alert(1, 10, ok), alert(1, 10, revoke.OutcomeRevoked)},
			snap: func(l []request) revnet.StatusSnapshot { return snap([]ident.NodeID{10}, l) },
			want: "targets without exactly τ′+1=2",
		},
		{
			name: "target past the threshold but not revoked",
			log:  []request{alert(1, 10, ok), alert(2, 10, ok)},
			snap: func(l []request) revnet.StatusSnapshot { return snap(nil, l) },
			want: "targets without exactly τ′+1=2",
		},
		{
			name: "revoked reply missing from the final set",
			log:  []request{alert(1, 10, ok), alert(2, 10, revoke.OutcomeRevoked)},
			snap: func(l []request) revnet.StatusSnapshot { return snap(nil, l) },
			want: "final revoked set differs",
		},
		{
			name: "final set holds a target nobody revoked",
			log:  []request{alert(1, 10, ok), alert(2, 10, revoke.OutcomeRevoked)},
			snap: func(l []request) revnet.StatusSnapshot { return snap([]ident.NodeID{10, 11}, l) },
			want: "final revoked set differs",
		},
		{
			name: "station handled fewer alerts than sent",
			log:  []request{alert(1, 10, ok)},
			snap: func(l []request) revnet.StatusSnapshot {
				s := snap(nil, l)
				s.Station.Handled = 0
				return s
			},
			want: "station handled 0 alerts, 1 sent",
		},
		{
			name: "query not served",
			log:  []request{{reporter: 1, target: 10, query: true}},
			snap: func(l []request) revnet.StatusSnapshot {
				s := snap(nil, l)
				s.Net.QueriesServed = 0
				return s
			},
			want: "0 queries served, 1 sent",
		},
		{
			name: "frame count off",
			log:  []request{alert(1, 10, ok)},
			snap: func(l []request) revnet.StatusSnapshot {
				s := snap(nil, l)
				s.Net.FramesIn = 2
				return s
			},
			want: "2 frames in, 1 requests sent",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := checkRevocation(c.log, c.snap(c.log))
			if !strings.Contains(strings.Join(v, "\n"), c.want) {
				t.Fatalf("violations %q do not report %q", v, c.want)
			}
		})
	}
}
