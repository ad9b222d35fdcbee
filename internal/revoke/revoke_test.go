package revoke

import (
	"fmt"
	"testing"

	"beaconsec/internal/ident"
	"beaconsec/internal/rng"
	"beaconsec/internal/sim"
)

func cfg(tau, tauPrime int) Config {
	return Config{ReportCap: tau, AlertThreshold: tauPrime}
}

func TestConfigValidate(t *testing.T) {
	if err := cfg(10, 2).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := cfg(-1, 2).Validate(); err == nil {
		t.Error("negative ReportCap accepted")
	}
	if err := cfg(1, -1).Validate(); err == nil {
		t.Error("negative AlertThreshold accepted")
	}
}

func TestNewBaseStationPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewBaseStation(cfg(-1, 0))
}

// forEachShardCount runs fn as one subtest per shard count, each on a
// fresh station with the given thresholds: one shard, as the simulation
// runs, and four, as the networked service runs several.
func forEachShardCount(t *testing.T, c Config, fn func(t *testing.T, bs *Sharded)) {
	t.Helper()
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { fn(t, NewSharded(c, n)) })
	}
}

func TestRevocationAtThresholdPlusOne(t *testing.T) {
	// τ′ = 2: revoked at the third accepted alert ("exceeds τ′").
	forEachShardCount(t, cfg(10, 2), func(t *testing.T, bs *Sharded) {
		target := ident.NodeID(50)
		if got := bs.HandleAlert(1, target); got != OutcomeAccepted {
			t.Fatalf("alert 1: %v", got)
		}
		if got := bs.HandleAlert(2, target); got != OutcomeAccepted {
			t.Fatalf("alert 2: %v", got)
		}
		if bs.Revoked(target) {
			t.Fatal("revoked before exceeding τ′")
		}
		if got := bs.HandleAlert(3, target); got != OutcomeRevoked {
			t.Fatalf("alert 3: %v, want revoked", got)
		}
		if !bs.Revoked(target) {
			t.Fatal("not revoked after exceeding τ′")
		}
		if got := bs.AlertCount(target); got != 3 {
			t.Errorf("AlertCount = %d", got)
		}
	})
}

func TestAlertsAgainstRevokedIgnored(t *testing.T) {
	forEachShardCount(t, cfg(10, 0), func(t *testing.T, bs *Sharded) {
		bs.HandleAlert(1, 50)
		if got := bs.HandleAlert(2, 50); got != OutcomeAlreadyRevoked {
			t.Errorf("alert on revoked target: %v", got)
		}
		// The late reporter's budget must not be consumed.
		if got := bs.ReportCount(2); got != 0 {
			t.Errorf("ReportCount of ignored reporter = %d", got)
		}
	})
}

func TestReportCapBoundsAcceptedAlerts(t *testing.T) {
	// τ = 2: a single reporter gets at most τ+1 = 3 alerts accepted —
	// the bound behind the paper's N_f formula.
	forEachShardCount(t, cfg(2, 100), func(t *testing.T, bs *Sharded) {
		reporter := ident.NodeID(1)
		accepted := 0
		for i := 0; i < 10; i++ {
			target := ident.NodeID(50 + i)
			if out := bs.HandleAlert(reporter, target); out == OutcomeAccepted {
				accepted++
			} else if out != OutcomeReporterCapped {
				t.Fatalf("alert %d: %v", i, out)
			}
		}
		if accepted != 3 {
			t.Errorf("accepted %d alerts from one reporter with τ=2, want 3", accepted)
		}
	})
}

func TestCollusionBound(t *testing.T) {
	// N_a colluders each spending their full budget against distinct
	// benign targets revoke at most N_a(τ+1)/(τ′+1) nodes (paper §4).
	const na, tau, tauPrime = 10, 10, 2
	forEachShardCount(t, cfg(tau, tauPrime), func(t *testing.T, bs *Sharded) {
		src := rng.New(5)
		benign := 100
		for a := 0; a < na; a++ {
			reporter := ident.NodeID(1000 + a)
			for r := 0; r <= tau; r++ {
				target := ident.NodeID(1 + src.Intn(benign))
				bs.HandleAlert(reporter, target)
			}
		}
		bound := na * (tau + 1) / (tauPrime + 1)
		if got := len(bs.RevokedSet()); got > bound {
			t.Errorf("colluders revoked %d benign nodes, bound is %d", got, bound)
		}
	})
}

func TestRevokedReporterStillAccepted(t *testing.T) {
	// Paper: "the alert from a revoked detecting node will still be
	// accepted ... to prevent malicious beacon nodes from ... having
	// these benign beacon nodes revoked before they can report".
	forEachShardCount(t, cfg(10, 0), func(t *testing.T, bs *Sharded) {
		bs.HandleAlert(1, 2) // revokes node 2 (τ′ = 0)
		if !bs.Revoked(2) {
			t.Fatal("setup failed")
		}
		if got := bs.HandleAlert(2, 3); got != OutcomeRevoked {
			t.Errorf("revoked reporter's alert: %v, want accepted (and revoking with τ′=0)", got)
		}
	})
}

func TestSelfReportIgnored(t *testing.T) {
	forEachShardCount(t, cfg(10, 0), func(t *testing.T, bs *Sharded) {
		if got := bs.HandleAlert(5, 5); got != OutcomeSelfReport {
			t.Errorf("self report: %v", got)
		}
		if bs.Revoked(5) {
			t.Error("self report revoked the node")
		}
	})
}

func TestOnRevokeCallback(t *testing.T) {
	forEachShardCount(t, cfg(10, 2), func(t *testing.T, bs *Sharded) {
		var revoked []ident.NodeID
		bs.OnRevoke(func(id ident.NodeID) { revoked = append(revoked, id) })
		bs.HandleAlert(1, 50)
		bs.HandleAlert(2, 50)
		if len(revoked) != 0 {
			t.Fatalf("callback fired early: %v", revoked)
		}
		bs.HandleAlert(3, 50)
		if len(revoked) != 1 || revoked[0] != 50 {
			t.Errorf("callback got %v, want [50]", revoked)
		}
	})
}

func TestRevokedSetSorted(t *testing.T) {
	forEachShardCount(t, cfg(10, 0), func(t *testing.T, bs *Sharded) {
		bs.HandleAlert(1, 9)
		bs.HandleAlert(2, 3)
		bs.HandleAlert(3, 7)
		got := bs.RevokedSet()
		if len(got) != 3 || got[0] != 3 || got[1] != 7 || got[2] != 9 {
			t.Errorf("RevokedSet = %v", got)
		}
	})
}

func TestHandledCounter(t *testing.T) {
	forEachShardCount(t, cfg(0, 0), func(t *testing.T, bs *Sharded) {
		bs.HandleAlert(1, 2)
		bs.HandleAlert(1, 2)
		bs.HandleAlert(3, 3)
		if got := bs.Stats().Handled; got != 3 {
			t.Errorf("Handled = %d", got)
		}
	})
}

func TestReportCounterMonotoneBound(t *testing.T) {
	// Property: report counters never exceed τ+1 regardless of alert
	// pattern.
	const tau = 3
	forEachShardCount(t, cfg(tau, 2), func(t *testing.T, bs *Sharded) {
		src := rng.New(11)
		for i := 0; i < 500; i++ {
			reporter := ident.NodeID(1 + src.Intn(10))
			target := ident.NodeID(100 + src.Intn(20))
			bs.HandleAlert(reporter, target)
		}
		for r := ident.NodeID(1); r <= 10; r++ {
			if got := bs.ReportCount(r); got > tau+1 {
				t.Errorf("reporter %v count %d exceeds τ+1", r, got)
			}
		}
	})
}

// TestUplinkDeliversWithoutLoss: every alert reaches the base station,
// and only after the uplink's delay.
func TestUplinkDeliversWithoutLoss(t *testing.T) {
	forEachShardCount(t, cfg(10, 0), func(t *testing.T, bs *Sharded) {
		sched := sim.New()
		u := NewUplink(sched, bs)
		u.SendAlert(1, 50)
		u.SendAlert(2, 51)
		sched.RunUntil(uplinkDelay - 1)
		if got := bs.Stats().Handled; got != 0 {
			t.Errorf("base station handled %d alerts before the uplink delay", got)
		}
		sched.Run()
		if got := bs.Stats(); got.Handled != 2 || got.Revocations != 2 {
			t.Errorf("base station stats %+v, want 2 handled, 2 revocations", got)
		}
		if !bs.Revoked(50) || !bs.Revoked(51) {
			t.Error("a delivered alert did not revoke its target")
		}
	})
}

func TestOutcomeStrings(t *testing.T) {
	tests := []struct {
		o    Outcome
		want string
	}{
		{OutcomeAccepted, "accepted"},
		{OutcomeRevoked, "revoked"},
		{OutcomeReporterCapped, "reporter-capped"},
		{OutcomeAlreadyRevoked, "already-revoked"},
		{OutcomeSelfReport, "self-report"},
		{OutcomeDuplicate, "duplicate"},
		{Outcome(0), "outcome(0)"}, // the invalid zero value
		{Outcome(99), "outcome(99)"},
		{Outcome(-3), "outcome(-3)"},
	}
	for _, tt := range tests {
		if got := tt.o.String(); got != tt.want {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(tt.o), got, tt.want)
		}
	}
}

// TestEveryOutcomeReachableAndCounted drives one base station through a
// scripted alert sequence that produces every Outcome value, checking the
// returned outcome and the corresponding Stats counter at each step.
func TestEveryOutcomeReachableAndCounted(t *testing.T) {
	// τ = 0 (budget: one accepted alert per reporter), τ′ = 1 (revoked at
	// the second accepted alert).
	forEachShardCount(t, cfg(0, 1), func(t *testing.T, bs *Sharded) {
		steps := []struct {
			name             string
			reporter, target ident.NodeID
			want             Outcome
			wantStats        Stats
		}{
			{"self-report", 5, 5, OutcomeSelfReport,
				Stats{Handled: 1, SelfReports: 1}},
			{"first accepted", 1, 50, OutcomeAccepted,
				Stats{Handled: 2, SelfReports: 1, Accepted: 1}},
			{"duplicate pair", 1, 50, OutcomeDuplicate,
				Stats{Handled: 3, SelfReports: 1, Accepted: 1, Duplicates: 1}},
			{"second accusation revokes", 2, 50, OutcomeRevoked,
				Stats{Handled: 4, SelfReports: 1, Accepted: 2, Duplicates: 1, Revocations: 1}},
			{"already revoked", 3, 50, OutcomeAlreadyRevoked,
				Stats{Handled: 5, SelfReports: 1, Accepted: 2, Duplicates: 1, Revocations: 1, AlreadyRevoked: 1}},
			{"reporter capped", 1, 60, OutcomeReporterCapped,
				Stats{Handled: 6, SelfReports: 1, Accepted: 2, Duplicates: 1, Revocations: 1, AlreadyRevoked: 1, ReporterCapped: 1}},
		}
		for _, tt := range steps {
			if got := bs.HandleAlert(tt.reporter, tt.target); got != tt.want {
				t.Fatalf("%s: HandleAlert(%v, %v) = %v, want %v", tt.name, tt.reporter, tt.target, got, tt.want)
			}
			if got := bs.Stats(); got != tt.wantStats {
				t.Fatalf("%s: Stats = %+v, want %+v", tt.name, got, tt.wantStats)
			}
		}
	})
}
