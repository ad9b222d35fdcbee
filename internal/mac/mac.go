// Package mac implements the link layer on top of phy: CSMA with random
// backoff, packet framing and authentication under pairwise keys, unicast
// addressing across multiple local identities (a beacon node receives both
// as itself and as each of its detecting pseudonyms), and the send-time
// payload composition the paper's RTT protocol needs (the turnaround value
// t3 - t2 is written into the reply while it is being transmitted, because
// t3 is the reply's own first-byte register timestamp).
package mac

import (
	"beaconsec/internal/crypto"
	"beaconsec/internal/ident"
	"beaconsec/internal/packet"
	"beaconsec/internal/phy"
	"beaconsec/internal/rng"
	"beaconsec/internal/sim"
)

// CSMA parameters. Backoff is uniform in [1, backoffSlots] byte-times;
// after maxAttempts busy attempts the frame is dropped and OnSent reports
// failure.
const (
	backoffSlots = 32
	maxAttempts  = 16
)

// Truth carries physical-layer ground truth and attacker-manipulated
// signal features through to the instruments that are defined in terms of
// them (the wormhole detector). Protocol decision logic must not read
// Replayed: no mote can observe "this frame is a replay" directly.
type Truth struct {
	// WormholeMark is the attacker-manipulated signal feature.
	WormholeMark bool
	// Replayed is ground truth: the frame was re-injected by a tunnel or
	// replay attacker.
	Replayed bool
}

// Delivery is an authenticated packet handed to the upper layer.
type Delivery struct {
	Pkt packet.Packet
	// Local is the local identity the packet was addressed to (one of
	// the node's IDs, or ident.Broadcast).
	Local ident.NodeID
	// MeasuredDist is the RSSI-derived distance to the transmit origin.
	MeasuredDist float64
	// FirstByteSPDR is the receiver-side register timestamp (t2 for a
	// request, t4 for a reply).
	FirstByteSPDR sim.Time
	// End is when the frame finished arriving.
	End sim.Time
	// Truth is physical-layer ground truth for instruments.
	Truth Truth
}

// Handler consumes deliveries.
type Handler func(Delivery)

// SendOptions control one transmission.
type SendOptions struct {
	// Identity is the sending identity; ident.Nobody selects the node's
	// primary identity. The identity's pairwise key with dst
	// authenticates the packet.
	Identity ident.NodeID
	// Compose, if non-nil, builds the payload at actual transmit time,
	// receiving the transmission's own first-byte register timestamp
	// (t3). The payload passed to Send is then only used for sizing and
	// must have the same encoded size.
	Compose func(t3 sim.Time) any
	// RangeBias / WormholeMark are attacker signal manipulations; benign
	// nodes leave them zero.
	RangeBias    float64
	WormholeMark bool
	// OnSent reports the transmission's timing (ok) or a CSMA drop
	// (!ok).
	OnSent func(info phy.TxInfo, ok bool)
}

// Stats counts link-layer events.
type Stats struct {
	Sent      uint64
	Backoffs  uint64
	CSMADrops uint64
	AuthFail  uint64
	// NotForUs counts frames that reach the endpoint for an identity it
	// does not own: unaddressed at the link, or under an address several
	// radios listen on. A frame the radio filters by link address never
	// reaches the endpoint and is not counted.
	NotForUs    uint64
	DecodeError uint64
	Delivered   uint64
}

// Merge adds another endpoint's counters field-wise (used by the scenario
// layer to aggregate link stats across a deployment's nodes).
func (s *Stats) Merge(o Stats) {
	s.Sent += o.Sent
	s.Backoffs += o.Backoffs
	s.CSMADrops += o.CSMADrops
	s.AuthFail += o.AuthFail
	s.NotForUs += o.NotForUs
	s.DecodeError += o.DecodeError
	s.Delivered += o.Delivered
}

// Endpoint is one node's link-layer interface.
type Endpoint struct {
	sched   *sim.Scheduler
	radio   *phy.Radio
	store   *crypto.Store
	src     *rng.Source
	handler Handler
	primary ident.NodeID
	seq     uint16
	stats   Stats
}

// NewEndpoint binds a link layer to a radio, which from then on listens
// on the link address of each of the store's identities. The store's
// first identity is the primary. src must be a dedicated stream.
func NewEndpoint(sched *sim.Scheduler, radio *phy.Radio, store *crypto.Store, src *rng.Source) *Endpoint {
	ids := store.Identities()
	if len(ids) == 0 {
		panic("mac: store holds no identities")
	}
	e := &Endpoint{
		sched:   sched,
		radio:   radio,
		store:   store,
		src:     src,
		primary: ids[0],
	}
	radio.SetHandler(e.onReception)
	addrs := make([]uint32, len(ids))
	for i, id := range ids {
		addrs[i] = linkAddr(id)
	}
	radio.Listen(addrs...)
	return e
}

// linkAddr is the phy link address of identity id: the identity itself,
// except that broadcast frames are unaddressed.
func linkAddr(id ident.NodeID) uint32 {
	if id == ident.Broadcast {
		return 0
	}
	return uint32(id)
}

// SetHandler installs the upper-layer packet handler.
func (e *Endpoint) SetHandler(h Handler) { e.handler = h }

// Stats returns a copy of the endpoint counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// NextSeq allocates a fresh sequence number.
func (e *Endpoint) NextSeq() uint16 {
	e.seq++
	return e.seq
}

// keyFor returns the MAC a frame from local identity local to peer is
// signed under: the broadcast MAC if either is the broadcast address,
// else the pair's. It panics if the store does not own local.
func (e *Endpoint) keyFor(local, peer ident.NodeID) *crypto.MAC {
	if peer == ident.Broadcast || local == ident.Broadcast {
		return e.store.Broadcast()
	}
	return e.store.Pair(local, peer)
}

// Send queues payload for dst with CSMA. The sequence number used is
// returned so callers can match replies (packet.BeaconReply.Echo).
func (e *Endpoint) Send(dst ident.NodeID, payload any, opts SendOptions) uint16 {
	seq := e.NextSeq()
	e.SendSeq(dst, seq, payload, opts)
	return seq
}

// SendSeq is Send with a caller-allocated sequence number (from NextSeq),
// for callers that must register reply-matching state before the first
// transmission attempt.
func (e *Endpoint) SendSeq(dst ident.NodeID, seq uint16, payload any, opts SendOptions) {
	srcID := opts.Identity
	if srcID == ident.Nobody {
		srcID = e.primary
	}
	e.attempt(srcID, dst, seq, payload, opts, 1)
}

func (e *Endpoint) attempt(srcID, dst ident.NodeID, seq uint16, payload any, opts SendOptions, try int) {
	if e.radio == nil {
		return
	}
	medium := e.radio.Medium()
	if medium.Busy(e.radio) {
		if try >= maxAttempts {
			e.stats.CSMADrops++
			if opts.OnSent != nil {
				opts.OnSent(phy.TxInfo{}, false)
			}
			return
		}
		e.stats.Backoffs++
		backoff := sim.Time(1+e.src.Intn(backoffSlots)) * phy.CyclesPerByte
		e.sched.After(backoff, func() {
			e.attempt(srcID, dst, seq, payload, opts, try+1)
		})
		return
	}

	key := e.keyFor(srcID, dst)
	frame := phy.Frame{
		Dst:          linkAddr(dst),
		RangeBias:    opts.RangeBias,
		WormholeMark: opts.WormholeMark,
	}
	if opts.Compose == nil {
		data, err := packet.Encode(srcID, dst, seq, payload, key)
		if err != nil {
			panic("mac: unencodable payload: " + err.Error())
		}
		frame.Data = data
	} else {
		// payload only sizes the frame, so it is neither encoded nor
		// signed: Finalize encodes and signs the composed payload into
		// the buffer before any receiver sees a byte, and nothing reads
		// Data before then.
		want, err := packet.Size(payload)
		if err != nil {
			panic("mac: unencodable payload: " + err.Error())
		}
		sizing := make([]byte, want)
		frame.Data = sizing
		frame.Finalize = func(t3 sim.Time) []byte {
			// Encode in place over the sizing buffer: the frame owns it
			// and the encoded size is pinned, so this costs no
			// allocation.
			final, err := packet.EncodeTo(sizing[:0], srcID, dst, seq, opts.Compose(t3), key)
			if err != nil {
				panic("mac: unencodable composed payload: " + err.Error())
			}
			if len(final) != want {
				panic("mac: composed payload changed frame size")
			}
			return final
		}
	}
	info := medium.Transmit(e.radio, frame)
	e.stats.Sent++
	if opts.OnSent != nil {
		opts.OnSent(info, true)
	}
}

func (e *Endpoint) onReception(rec phy.Reception) {
	h, err := packet.PeekHeader(rec.Frame.Data)
	if err != nil {
		e.stats.DecodeError++
		return
	}
	local, key := h.Dst, e.store.Broadcast()
	if local != ident.Broadcast {
		// One scan of the store's identities decides both whether the
		// frame is for this node and which MAC it verifies under.
		if key = e.store.Lookup(local, h.Src); key == nil {
			e.stats.NotForUs++
			return
		}
	}
	pkt, err := packet.Decode(rec.Frame.Data, key)
	if err != nil {
		e.stats.AuthFail++
		return
	}
	e.stats.Delivered++
	if e.handler == nil {
		return
	}
	e.handler(Delivery{
		Pkt:           pkt,
		Local:         local,
		MeasuredDist:  rec.MeasuredDist,
		FirstByteSPDR: rec.FirstByteSPDR,
		End:           rec.End,
		Truth: Truth{
			WormholeMark: rec.Frame.WormholeMark,
			Replayed:     rec.Frame.Replayed,
		},
	})
}
