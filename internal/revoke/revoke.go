// Package revoke implements the paper's §3 revocation scheme: the base
// station accumulates alerts from detecting beacon nodes, bounds how many
// alerts any single node may have accepted (the report counter, capped by
// τ), measures each beacon node's suspiciousness (the alert counter), and
// revokes nodes whose alert counter exceeds τ′.
//
// The report cap is the defense against colluding malicious beacons: a
// group of N_a colluders can have at most N_a·(τ+1) alerts accepted, so
// they can force at most N_a·(τ+1)/(τ′+1) benign revocations — the bound
// the paper's false-positive analysis (and Figure 14) is built on.
package revoke

import "fmt"

// Config holds the two thresholds.
type Config struct {
	// ReportCap is τ: an alert is accepted only while its reporter's
	// report counter has not exceeded τ (so each reporter contributes at
	// most τ+1 accepted alerts).
	ReportCap int
	// AlertThreshold is τ′: a node is revoked when its alert counter
	// exceeds τ′ (i.e. at the (τ′+1)-th accepted alert).
	AlertThreshold int
}

// Validate returns an error for unusable thresholds.
func (c Config) Validate() error {
	if c.ReportCap < 0 {
		return fmt.Errorf("revoke: ReportCap %d must be >= 0", c.ReportCap)
	}
	if c.AlertThreshold < 0 {
		return fmt.Errorf("revoke: AlertThreshold %d must be >= 0", c.AlertThreshold)
	}
	return nil
}

// Outcome describes how the base station handled one alert. Values start
// at one so the zero value is invalid.
type Outcome int

// Outcomes.
const (
	// OutcomeAccepted: counters incremented, target not (yet) revoked.
	OutcomeAccepted Outcome = iota + 1
	// OutcomeRevoked: accepted, and the target crossed τ′ and was
	// revoked.
	OutcomeRevoked
	// OutcomeReporterCapped: ignored, the reporter exhausted its τ
	// budget.
	OutcomeReporterCapped
	// OutcomeAlreadyRevoked: ignored, the target is already revoked.
	OutcomeAlreadyRevoked
	// OutcomeSelfReport: ignored, a node accused itself.
	OutcomeSelfReport
	// OutcomeDuplicate: ignored, this (reporter, target) pair was
	// already accepted — alerts are idempotent, so uplink
	// retransmission cannot inflate counters and a single malicious
	// reporter cannot multiply its alerts against one victim.
	OutcomeDuplicate
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeAccepted:
		return "accepted"
	case OutcomeRevoked:
		return "revoked"
	case OutcomeReporterCapped:
		return "reporter-capped"
	case OutcomeAlreadyRevoked:
		return "already-revoked"
	case OutcomeSelfReport:
		return "self-report"
	case OutcomeDuplicate:
		return "duplicate"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Stats breaks the base station's handled alerts down by outcome.
type Stats struct {
	Handled        uint64 `json:"handled"`
	Accepted       uint64 `json:"accepted"`
	Revocations    uint64 `json:"revocations"`
	ReporterCapped uint64 `json:"reporter_capped"`
	AlreadyRevoked uint64 `json:"already_revoked"`
	SelfReports    uint64 `json:"self_reports"`
	Duplicates     uint64 `json:"duplicates"`
}

// Merge adds another base station's counters field-wise.
func (s *Stats) Merge(o Stats) {
	s.Handled += o.Handled
	s.Accepted += o.Accepted
	s.Revocations += o.Revocations
	s.ReporterCapped += o.ReporterCapped
	s.AlreadyRevoked += o.AlreadyRevoked
	s.SelfReports += o.SelfReports
	s.Duplicates += o.Duplicates
}

func (s *Stats) record(o Outcome) {
	s.Handled++
	switch o {
	case OutcomeAccepted:
		s.Accepted++
	case OutcomeRevoked:
		s.Accepted++ // a revoking alert was also accepted
		s.Revocations++
	case OutcomeReporterCapped:
		s.ReporterCapped++
	case OutcomeAlreadyRevoked:
		s.AlreadyRevoked++
	case OutcomeSelfReport:
		s.SelfReports++
	case OutcomeDuplicate:
		s.Duplicates++
	}
}
