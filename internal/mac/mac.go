// Package mac implements the link layer on top of phy: CSMA with random
// backoff, packet framing and authentication under pairwise keys, unicast
// addressing across multiple local identities (a beacon node receives both
// as itself and as each of its detecting pseudonyms), and the send-time
// turnaround the paper's RTT protocol needs (t3 - t2 is written into a
// beacon reply while it is being transmitted, because t3 is the reply's
// own first-byte register timestamp).
//
// A send allocates nothing in steady state. Each one lives in a record
// pooled on its endpoint, from Send until the frame is launched or
// dropped: the record holds the destination, sequence number, identity
// and options, the encoded bytes, and the event its CSMA re-attempt
// fires from, and it finalizes the frame at launch (phy.Finalizer). The
// medium copies the bytes into each reception, so the record goes back
// to the pool as soon as Transmit returns. A send's outcome reaches the
// caller through SendOptions.Done.
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
// after maxAttempts busy attempts the frame is dropped and Done learns
// of it.
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
	// T2 and Skew set a packet.BeaconReply's Turnaround, which the
	// endpoint writes at launch, once t3, the reply's own first-byte
	// register timestamp, is known: with turn = uint32(t3 - T2), the
	// reply carries turn - min(Skew, turn). T2 is the request's
	// first-byte register timestamp at the replier; a benign beacon
	// leaves Skew 0, a malicious one under-reports its turnaround by it.
	// The Turnaround of the payload passed to Send is not used.
	T2   sim.Time
	Skew uint32
	// RangeBias / WormholeMark are attacker signal manipulations; benign
	// nodes leave them zero.
	RangeBias    float64
	WormholeMark bool
	// Done, if non-nil, learns how the send ended.
	Done Done
}

// Done learns how a send ended.
type Done interface {
	// Sent reports the transmission's timing (ok) or a CSMA drop (!ok)
	// of the frame sent with sequence number seq.
	Sent(seq uint16, info phy.TxInfo, ok bool)
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
	src     rng.Source
	handler Handler
	primary ident.NodeID
	seq     uint16
	stats   Stats
	// free recycles send records.
	free []*send
}

// NewEndpoint binds a link layer to a radio, which from then on listens
// on the link address of each of the store's identities. The store's
// first identity is the primary. The endpoint draws its backoffs from
// its own copy of src.
func NewEndpoint(sched *sim.Scheduler, radio *phy.Radio, store *crypto.Store, src rng.Source) *Endpoint {
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
// transmission attempt. SendSeq encodes the payload before it returns
// and keeps no reference to it, so a payload built at the call stays on
// the caller's stack.
func (e *Endpoint) SendSeq(dst ident.NodeID, seq uint16, payload any, opts SendOptions) {
	s := e.getSend()
	s.src = opts.Identity
	if s.src == ident.Nobody {
		s.src = e.primary
	}
	s.dst, s.seq, s.opts, s.tries = dst, seq, opts, 1
	body, err := packet.AppendBody(s.buf[:0], s.src, dst, seq, payload)
	if err != nil {
		panic("mac: unencodable payload: " + err.Error())
	}
	s.body = len(body)
	e.attempt(s)
}

// send is one outgoing frame, from Send until it is launched or dropped:
// what each attempt needs, the event a CSMA re-attempt fires from, and
// the frame's bytes, encoded at Send and finalized at launch.
type send struct {
	ev       sim.Event
	e        *Endpoint
	src, dst ident.NodeID
	seq      uint16
	opts     SendOptions
	tries    int
	key      *crypto.MAC
	body     int // encoded length without the tag
	buf      [packet.MaxSize]byte
}

func (e *Endpoint) getSend() *send {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return s
	}
	return &send{e: e}
}

// Fire re-attempts the send after a CSMA backoff.
func (s *send) Fire() { s.e.attempt(s) }

// Finalize writes a beacon reply's turnaround and signs the frame, at
// launch (see SendOptions.T2).
func (s *send) Finalize(t3 sim.Time) []byte {
	body := s.buf[:s.body]
	if packet.Type(body[0]) == packet.TypeBeaconReply {
		turn := uint32(t3 - s.opts.T2)
		packet.PutTurnaround(body, turn-min(s.opts.Skew, turn))
	}
	return packet.Seal(body, s.key)
}

func (e *Endpoint) attempt(s *send) {
	medium := e.radio.Medium()
	if medium.Busy(e.radio) {
		if s.tries >= maxAttempts {
			e.stats.CSMADrops++
			e.finish(s, phy.TxInfo{}, false)
			return
		}
		s.tries++
		e.stats.Backoffs++
		backoff := sim.Time(1+e.src.Intn(backoffSlots)) * phy.CyclesPerByte
		e.sched.AtEvent(&s.ev, e.sched.Now()+backoff, s)
		return
	}
	s.key = e.keyFor(s.src, s.dst)
	info := medium.Transmit(e.radio, phy.Frame{
		// Sized here, written by Finalize before any receiver or tap
		// reads a byte.
		Data:         s.buf[:s.body+crypto.TagSize],
		Dst:          linkAddr(s.dst),
		RangeBias:    s.opts.RangeBias,
		WormholeMark: s.opts.WormholeMark,
		Finalize:     s,
	})
	e.stats.Sent++
	e.finish(s, info, true)
}

// finish returns s to the pool, then reports the send's outcome: the
// medium has copied the bytes it launched, and Done may send again.
func (e *Endpoint) finish(s *send, info phy.TxInfo, ok bool) {
	done, seq := s.opts.Done, s.seq
	s.opts = SendOptions{}
	e.free = append(e.free, s)
	if done != nil {
		done.Sent(seq, info, ok)
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
