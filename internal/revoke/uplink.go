package revoke

import (
	"beaconsec/internal/ident"
	"beaconsec/internal/sim"
)

// uplinkDelay is the latency of one alert from its beacon node to the
// base station.
var uplinkDelay = sim.Millis(20)

// Uplink models the multi-hop path from a beacon node to the base
// station. The paper assumes "every alert from beacon nodes can be
// successfully delivered to the base station using some standard fault
// tolerant techniques (e.g., retransmission) when there are message
// losses"; Uplink delivers every alert, uplinkDelay after it was sent.
type Uplink struct {
	sched *sim.Scheduler
	bs    *Sharded
}

// NewUplink builds an uplink to bs over the given scheduler.
func NewUplink(sched *sim.Scheduler, bs *Sharded) *Uplink {
	return &Uplink{sched: sched, bs: bs}
}

// SendAlert queues one alert for delivery.
func (u *Uplink) SendAlert(reporter, target ident.NodeID) {
	u.sched.After(uplinkDelay, func() { u.bs.HandleAlert(reporter, target) })
}
