package node

import (
	"beaconsec/internal/geo"
	"beaconsec/internal/packet"
	"beaconsec/internal/phy"
	"beaconsec/internal/sim"
)

// ReplayAttacker is a store-and-forward local replay attacker: it records
// every beacon reply transmitted within its radio range and re-injects it
// from its own position the moment the original finishes.
//
// This is the attack §2.2.2's RTT filter defeats: a local replay costs at
// least one full packet time ("the delay of replaying a signal between
// two neighbor nodes is at least the transmission time of one entire
// packet"), which dwarfs the ≈4.5-bit benign RTT spread.
type ReplayAttacker struct {
	// Pos is the attacker's position. It is fixed once installed:
	// NewReplayAttacker builds the medium's injection port there.
	Pos geo.Point
	// Replayed counts re-injected frames.
	Replayed uint64

	sched  *sim.Scheduler
	medium *phy.Medium
	port   *phy.Port
}

// NewReplayAttacker installs a replay attacker on the medium.
func NewReplayAttacker(sched *sim.Scheduler, medium *phy.Medium, pos geo.Point) *ReplayAttacker {
	a := &ReplayAttacker{Pos: pos, sched: sched, medium: medium, port: medium.NewPort(pos)}
	medium.AddTap(a.tap)
	return a
}

func (a *ReplayAttacker) tap(origin geo.Point, f phy.Frame, info phy.TxInfo) {
	if f.Replayed {
		return
	}
	if origin.Dist(a.Pos) > a.medium.Range() {
		return
	}
	h, err := packet.PeekHeader(f.Data)
	if err != nil || h.Type != packet.TypeBeaconReply {
		return
	}
	replay := f
	replay.Replayed = true
	replay.Finalize = nil
	data := make([]byte, len(f.Data))
	copy(data, f.Data)
	replay.Data = data
	a.Replayed++
	// Store-and-forward: cannot start before hearing the whole frame.
	a.sched.At(info.AirEnd, func() {
		a.medium.Inject(a.port, replay)
	})
}
