package revoke

import (
	"fmt"

	"beaconsec/internal/ident"
	"beaconsec/internal/rng"
	"beaconsec/internal/sim"
)

// Uplink models the multi-hop path from a beacon node to the base
// station. The paper assumes "every alert from beacon nodes can be
// successfully delivered to the base station using some standard fault
// tolerant techniques (e.g., retransmission) when there are message
// losses"; Uplink makes that assumption explicit and testable: each
// transmission is lost with probability LossRate, retried up to Retries
// times, each attempt costing Delay of simulated time.
type Uplink struct {
	sched *sim.Scheduler
	bs    *Sharded
	src   *rng.Source

	// LossRate is the per-attempt loss probability in [0, 1).
	LossRate float64
	// Retries bounds retransmissions per alert (total attempts =
	// Retries + 1).
	Retries int
	// Delay is the one-way latency per attempt.
	Delay sim.Time

	stats UplinkStats
}

// UplinkStats counts uplink traffic: attempts include retransmissions, so
// Attempts - Delivered - per-alert losses measures the retry cost the
// paper's "standard fault tolerant techniques" assumption hides.
type UplinkStats struct {
	Attempts  uint64 `json:"attempts"`
	Delivered uint64 `json:"delivered"`
	Lost      uint64 `json:"lost"`
}

// Merge adds another uplink's counters field-wise.
func (s *UplinkStats) Merge(o UplinkStats) {
	s.Attempts += o.Attempts
	s.Delivered += o.Delivered
	s.Lost += o.Lost
}

// NewUplink builds an uplink to bs over the given scheduler.
func NewUplink(sched *sim.Scheduler, bs *Sharded, src *rng.Source) *Uplink {
	return &Uplink{
		sched:   sched,
		bs:      bs,
		src:     src,
		Retries: 8,
		Delay:   sim.Millis(20),
	}
}

// SendAlert queues one alert for delivery. The result callback (optional)
// receives the base-station outcome, or is not invoked if every attempt
// was lost.
func (u *Uplink) SendAlert(reporter, target ident.NodeID, result func(Outcome)) {
	if u.LossRate < 0 || u.LossRate >= 1 {
		panic(fmt.Sprintf("revoke: loss rate %v outside [0,1)", u.LossRate))
	}
	u.attempt(reporter, target, result, 0)
}

func (u *Uplink) attempt(reporter, target ident.NodeID, result func(Outcome), try int) {
	u.sched.After(u.Delay, func() {
		u.stats.Attempts++
		if u.src != nil && u.src.Bool(u.LossRate) {
			if try < u.Retries {
				u.attempt(reporter, target, result, try+1)
				return
			}
			u.stats.Lost++
			return
		}
		u.stats.Delivered++
		out := u.bs.HandleAlert(reporter, target)
		if result != nil {
			result(out)
		}
	})
}

// Stats returns a copy of the uplink counters.
func (u *Uplink) Stats() UplinkStats { return u.stats }
