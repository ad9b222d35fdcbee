// Package phy simulates the physical radio layer of a MICA2-class mote
// network: bounded-error RSSI ranging, bit-level transmission timing,
// half-duplex radios, collisions, and the SPDR-register byte timestamps
// the paper's round-trip-time detector depends on (Figure 3).
//
// The paper's RTT detector works because
//
//	RTT = (t4 - t1) - (t3 - t2) = d1 + d2 + d3 + d4 + 2 D/c
//
// where t1..t4 are register-level byte timestamps and d1..d4 are small
// hardware shift delays; MAC backoff and processing delay cancel. This
// package reproduces exactly that structure: every transmission reports
// the sender-side time the first byte left the SPDR register (t1/t3
// analog) and every reception reports the receiver-side time the first
// byte was available in the register (t2/t4 analog), with per-byte
// hardware jitter drawn from a bounded distribution.
//
// A radio that listens on link addresses (Radio.Listen) drops a frame
// addressed elsewhere before it has a timestamp or a distance, as a
// MICA2 radio does. Such a frame is a passage: bare air occupancy that
// corrupts the receptions it overlaps and asserts carrier, with no
// event, no draw and no counter. Every draw comes from a stream keyed by
// (origin, the origin's launch count, receiver), so no reception depends
// on which radios listen or on the order a launch visits its receivers,
// and Stats counts receptions only.
package phy

import (
	"fmt"
	"math"
	"slices"

	"beaconsec/internal/geo"
	"beaconsec/internal/rng"
	"beaconsec/internal/sim"
)

// Radio timing constants for a MICA2-class mote.
const (
	// BitRate is the radio bit rate (19.2 kbps).
	BitRate = 19_200
	// CyclesPerBit is the CPU-cycle cost of one bit on air; the paper
	// states "the transmission time of one bit is about 384 clock
	// cycles".
	CyclesPerBit = sim.CPUHz / BitRate
	// CyclesPerByte is the CPU-cycle cost of one byte on air.
	CyclesPerByte = 8 * CyclesPerBit
	// speedOfLightFtPerSec converts propagation distance to time.
	speedOfLightFtPerSec = 983_571_056.0
)

// The SPDR hardware delay between the shift register and the air, per
// byte (the paper's d1..d4), is uniform in [JitterMin, JitterMax]
// cycles: a hard-bounded distribution, because the paper's claim that
// the detector "can always detect locally replayed beacon signals
// between two benign neighbor nodes" requires the benign RTT spread to
// be bounded. The bounds are calibrated so the no-attack RTT spread over
// 10,000 trials is ≈ 4.5 bit-times (1,728 cycles), the figure that
// survives in the paper's text: four draws sum to [12996, 14724] cycles.
const (
	JitterMin = 3249
	JitterMax = 3681
)

// jitter draws one per-byte hardware delay.
func jitter(src *rng.Source) sim.Time {
	return sim.Time(math.Round(src.Uniform(JitterMin, JitterMax)))
}

// Frame is one unit of air traffic: raw bytes plus attacker-controlled
// physical metadata. Protocol logic never reads the metadata; it only
// influences what the receiver's instruments (ranging, wormhole detector)
// observe.
type Frame struct {
	// Data is the encoded packet.
	Data []byte
	// Dst is the link address of the frame's destination; zero means
	// unaddressed. A radio that listens on other addresses only (see
	// Radio.Listen) does not receive the frame: it is a passage there.
	Dst uint32
	// RangeBias shifts the distance the receiver's ranging measures,
	// modelling transmit-power manipulation by a malicious sender.
	// Benign senders use 0.
	RangeBias float64
	// WormholeMark models a sender manipulating its signal so the
	// receiver's wormhole detector fires ("a malicious target node can
	// always manipulate its beacon signals to convince the detecting
	// node that there is a wormhole attack").
	WormholeMark bool
	// Replayed marks frames re-injected by a wormhole tunnel or replay
	// attacker. It is ground truth for the probabilistic wormhole
	// detector, not a bit a protocol participant can read.
	Replayed bool
	// Finalize, if non-nil, writes the frame's bytes at launch (see
	// Finalizer).
	Finalize Finalizer
}

// Finalizer writes a frame's bytes at launch, once the transmission's own
// first-byte register timestamp is known. It models a timestamp field
// written into a later byte of the packet while the first bytes are
// already on air (how the paper's reply carries t3 - t2). The MAC
// layer's outgoing frame records implement it.
type Finalizer interface {
	// Finalize returns the bytes that go on air in place of Data, which
	// until then only sizes the frame: as many bytes, written given the
	// transmission's first-byte register timestamp.
	Finalize(firstByteSPDR sim.Time) []byte
}

// TxInfo reports the timing of a transmission to the sender.
type TxInfo struct {
	// AirStart/AirEnd bound the frame's time on air.
	AirStart, AirEnd sim.Time
	// FirstByteSPDR is the sender-side register timestamp of the first
	// byte (the paper's t1 for requests, t3 for replies).
	FirstByteSPDR sim.Time
}

// Reception is what a radio's handler receives for an uncorrupted frame.
type Reception struct {
	// Frame is the frame as it arrived. Its Data is the reception's own
	// copy of the bytes, valid until the handler returns: the medium
	// reuses it for a later reception.
	Frame Frame
	// MeasuredDist is the RSSI-derived distance to the actual transmit
	// origin, including any attacker bias and the ranging error.
	MeasuredDist float64
	// FirstByteSPDR is the receiver-side register timestamp of the first
	// byte (the paper's t2 for requests, t4 for replies).
	FirstByteSPDR sim.Time
	// End is when the frame finished arriving.
	End sim.Time
}

// Handler consumes receptions.
type Handler func(Reception)

// Tap observes every transmission on the medium (attack tooling: wormhole
// tunnels, replay attackers). origin is the true injection point. f is
// the frame as launched, finalized (Finalize is nil), and f.Data is the
// sender's buffer, valid until the tap returns: a tap that keeps the
// bytes copies them, as InjectAt does.
type Tap func(origin geo.Point, f Frame, info TxInfo)

// arrival is one reception on air at its radio.
type arrival struct {
	end  sim.Time // when the frame has arrived
	lost bool     // corrupted by an overlapping frame or a transmission
}

// lose marks the reception lost and counts it under cause, unless it is
// lost already: each lost reception counts once, under its first cause.
func (a *arrival) lose(cause *uint64) {
	if !a.lost {
		a.lost = true
		*cause++
	}
}

// Radio is one node's transceiver at a fixed position.
type Radio struct {
	pos     geo.Point
	medium  *Medium
	handler Handler
	index   int32 // position in Medium.radios and Medium.air
	// launches counts r's transmissions; it keys their draws.
	launches uint64
	// neighbours lists every other radio within range, in ascending
	// registration order: the receivers of every Transmit from r.
	neighbours []neighbour
	// inflight arrivals, for collision marking.
	inflight []*arrival
	// txEnd is when r's latest transmission ends, for half-duplex.
	txEnd sim.Time
}

// Medium returns the medium the radio is attached to.
func (r *Radio) Medium() *Medium { return r.medium }

// SetHandler installs the reception callback. A nil handler drops frames.
func (r *Radio) SetHandler(h Handler) { r.handler = h }

// Listen makes r filter frames by link address, as a mote's radio drops
// frames meant for other nodes. From then on a frame addressed to
// another address is a passage at r: it still occupies r's air — it
// corrupts the receptions it overlaps and asserts carrier — but never
// reaches r's handler, and costs the scheduler no event, the medium no
// draw and Stats no count. r still receives unaddressed frames, frames
// for any address it listens on, and frames for an address more than one
// radio listens on. Address 0 marks unaddressed frames, so listening on
// it changes nothing. A radio that never calls Listen receives every
// frame in range.
func (r *Radio) Listen(addrs ...uint32) {
	m := r.medium
	if m.owners == nil {
		m.owners = make(map[uint32]int32)
	}
	m.air[r.index].listening = true
	for _, a := range addrs {
		if a == 0 {
			continue
		}
		if o, ok := m.owners[a]; ok && o != r.index {
			m.owners[a] = everyone
		} else {
			m.owners[a] = r.index
		}
	}
}

// Port is a fixed point that injects frames with no radio: a wormhole
// tunnel's exit or a replay attacker's antenna. Like a radio, it keeps
// a neighbour table — every radio within range, in ascending
// registration order — that NewPort builds and NewRadio extends, so an
// injection never searches for its receivers. A port is never a
// receiver, and it lives as long as its medium.
type Port struct {
	pos geo.Point
	// origin keys the port's draws, disjoint from every radio's index;
	// launches counts its injections.
	origin     uint64
	launches   uint64
	neighbours []neighbour
}

// Stats counts medium-level events, for tests and experiment reporting.
// The reception counters count receptions only: a passage (see
// Radio.Listen) is in none of them. A lost reception counts once, under
// its first cause.
type Stats struct {
	Transmissions uint64
	// Deliveries counts uncorrupted receptions handed to a handler.
	Deliveries uint64
	// Collisions counts receptions lost to an overlapping frame, received
	// or passing.
	Collisions uint64
	// HalfDuplex counts receptions lost because the receiver was
	// transmitting.
	HalfDuplex uint64
	// Injections counts radio-less launches (wormhole tunnel exits and
	// replay attackers): attack traffic, a subset of Transmissions.
	Injections uint64
	// BytesOnAir is the total frame bytes transmitted.
	BytesOnAir uint64
}

// Merge adds another medium's counters field-wise (used by the scenario
// layer to aggregate metrics deterministically across runs).
func (s *Stats) Merge(o Stats) {
	s.Transmissions += o.Transmissions
	s.Deliveries += o.Deliveries
	s.Collisions += o.Collisions
	s.HalfDuplex += o.HalfDuplex
	s.Injections += o.Injections
	s.BytesOnAir += o.BytesOnAir
}

// Config parameterizes a Medium.
type Config struct {
	// Range is the maximum communication range in feet.
	Range float64
	// RangeError bounds the RSSI ranging error in feet: a reception
	// measures its distance plus an error uniform in [-RangeError,
	// +RangeError], clamped at zero. The paper assumes "a technique
	// (e.g. RSSI) used to estimate the distance ... that has the maximum
	// error of [10] feet", which is exactly this model. Zero measures
	// exactly, unclamped.
	RangeError float64
}

// neighbour is one receiver of a launch: a radio within range of the
// origin, with the true distance and propagation delay from the origin
// to it. Radios are indices into Medium.radios, so the tables hold no
// pointers and cost the garbage collector nothing to scan.
type neighbour struct {
	dist  float64 // feet
	rx    int32   // index into Medium.radios
	delay uint32  // propagation(dist), in cycles
}

// air is what the frames launched toward one radio leave at it. The
// medium keeps one per radio in a dense, pointer-free array, so a
// passage never reads its radio.
type air struct {
	// end is when the last frame at the radio, received or passing, ends
	// there; arrivalEnd is the same over receptions only.
	end, arrivalEnd sim.Time
	// listening is set by Radio.Listen.
	listening bool
}

// Medium is the shared radio channel. It is bound to one sim.Scheduler and
// is not safe for concurrent use (the simulation is single-threaded).
type Medium struct {
	sched *sim.Scheduler
	// key keys every draw (see launchKey).
	key     uint64
	cfg     Config
	radios  []*Radio
	air     []air // indexed like radios
	ports   []*Port
	grid    *geo.Grid   // spatial index over radio positions; cell = Range
	cands   []int32     // reusable candidate buffer for grid queries
	inRange []neighbour // reusable result buffer for resolve
	taps    []Tap
	stats   Stats
	// owners maps each link address a radio listens on to that radio's
	// index, or to everyone when several radios listen on it.
	owners map[uint32]int32
	// pendFree and injFree recycle pending-delivery and delayed-injection
	// records, events and byte buffers included, so steady-state
	// delivery and replay allocate nothing.
	pendFree []*pending
	injFree  []*injection
}

// Sentinel owners of a frame's destination address.
const (
	// everyone: the frame is unaddressed, or more than one radio listens
	// on its address, so no radio filters it.
	everyone int32 = -1
	// nobody: no radio listens on the frame's address.
	nobody int32 = -2
)

// Key spaces of the draws: a radio's origin is its index, a port's is
// portOrigin plus its index, and the sender's own draw takes the
// receiver slot no radio index reaches.
const (
	portOrigin = 1 << 32
	sender     = math.MaxUint32
)

// NewMedium creates a medium over the given scheduler. src must be a
// dedicated stream: the medium takes one word from it, the key of every
// draw it makes. It panics unless cfg.Range is positive with a
// propagation delay shorter than one byte time (below about 409,000 ft)
// and cfg.RangeError is finite and not negative.
func NewMedium(sched *sim.Scheduler, src *rng.Source, cfg Config) *Medium {
	if !(cfg.Range > 0) {
		panic(fmt.Sprintf("phy: non-positive range %v", cfg.Range))
	}
	// Every frame lasts at least a byte time, so while every delay is
	// shorter, a frame launched later overlaps an earlier one at a radio
	// exactly when it arrives before the earlier one ends there: the
	// medium compares ends alone.
	if !(cfg.Range/speedOfLightFtPerSec*sim.CPUHz < CyclesPerByte-0.5) {
		panic(fmt.Sprintf("phy: range %v ft has a propagation delay of a byte time or more", cfg.Range))
	}
	if !(cfg.RangeError >= 0) || math.IsInf(cfg.RangeError, 1) {
		panic(fmt.Sprintf("phy: ranging error bound %v is not finite and non-negative", cfg.RangeError))
	}
	return &Medium{sched: sched, key: src.Uint64(), cfg: cfg, grid: geo.NewGrid(cfg.Range)}
}

// Range returns the configured communication range.
func (m *Medium) Range() float64 { return m.cfg.Range }

// Stats returns a copy of the medium counters.
func (m *Medium) Stats() Stats { return m.stats }

// NewRadio registers a radio at pos and builds its neighbour table.
// The new radio also joins the table of each radio and port in range of
// it. It has the highest index, so every table stays in ascending
// registration order, even when radios register after transmissions
// have started.
func (m *Medium) NewRadio(pos geo.Point) *Radio {
	self := int32(len(m.radios))
	r := &Radio{pos: pos, medium: m, index: self}
	r.neighbours = slices.Clone(m.resolve(pos))
	for _, n := range r.neighbours {
		// Dist is symmetric bit for bit — the coordinate differences
		// negate exactly and hypot drops their signs — so the entry a
		// launch from the neighbour would compute has the same distance
		// and delay.
		other := m.radios[n.rx]
		other.neighbours = append(other.neighbours, neighbour{dist: n.dist, rx: self, delay: n.delay})
	}
	for _, p := range m.ports {
		// Origin first, as every table computes it.
		if d := p.pos.Dist(pos); !(d > m.cfg.Range) {
			p.neighbours = append(p.neighbours, neighbour{dist: d, rx: self, delay: uint32(propagation(d))})
		}
	}
	m.radios = append(m.radios, r)
	m.air = append(m.air, air{})
	m.grid.Add(pos) // grid index == position in m.radios
	return r
}

// NewPort makes an injection port at pos and builds its neighbour table:
// the radios a launch from pos reaches, as for a radio at pos.
func (m *Medium) NewPort(pos geo.Point) *Port {
	p := &Port{
		pos:        pos,
		origin:     portOrigin + uint64(len(m.ports)),
		neighbours: slices.Clone(m.resolve(pos)),
	}
	m.ports = append(m.ports, p)
	return p
}

// resolve returns, in ascending registration order, every radio whose
// distance from origin is not above Range, with that distance and its
// propagation delay. The result aliases a buffer the next call reuses.
func (m *Medium) resolve(origin geo.Point) []neighbour {
	m.cands = m.grid.Candidates(origin, m.cfg.Range, m.cands[:0])
	m.inRange = m.inRange[:0]
	for _, ri := range m.cands {
		// The hypot predicate, not a squared-distance comparison: the
		// two can disagree on borderline floats.
		if d := origin.Dist(m.radios[ri].pos); !(d > m.cfg.Range) {
			m.inRange = append(m.inRange, neighbour{dist: d, rx: ri, delay: uint32(propagation(d))})
		}
	}
	return m.inRange
}

// AddTap registers an attack-tooling tap invoked for every transmission.
func (m *Medium) AddTap(t Tap) { m.taps = append(m.taps, t) }

// FrameAirTime returns the on-air duration of n bytes.
func FrameAirTime(n int) sim.Time { return sim.Time(n) * CyclesPerByte }

func propagation(dist float64) sim.Time {
	return sim.Time(math.Round(dist / speedOfLightFtPerSec * sim.CPUHz))
}

// Busy reports whether r senses carrier, for the MAC's CSMA: r is
// transmitting, or a frame launched within range of r has not yet ended
// at r. Carrier sense cannot tell where a frame came from without
// demodulating it, so every frame asserts carrier, addressed to r or
// not, from its launch until its end at r (its arrival is at most a
// cycle after the launch at the paper's range). A radio that listens
// therefore senses exactly what it would if it did not.
func (m *Medium) Busy(r *Radio) bool {
	now := m.sched.Now()
	return now < m.air[r.index].end || now < r.txEnd
}

// Transmit puts f on air from radio r, returning its timing. The sender
// becomes half-duplex busy for the duration.
func (m *Medium) Transmit(r *Radio, f Frame) TxInfo {
	now := m.sched.Now()
	key := m.launchKey(uint64(r.index), r.launches)
	r.launches++
	info := m.launch(r.pos, key, &f, r.neighbours)
	r.txEnd = max(r.txEnd, info.AirEnd)
	// Transmitting loses every reception still arriving at the sender.
	for _, a := range r.inflight {
		if now < a.end {
			a.lose(&m.stats.HalfDuplex)
		}
	}
	return info
}

// Inject puts f on air from port p, which must have been made by m's
// NewPort, with no sending radio: wormhole tunnel exits and replay
// attackers use this.
func (m *Medium) Inject(p *Port, f Frame) TxInfo {
	m.stats.Injections++
	key := m.launchKey(p.origin, p.launches)
	p.launches++
	return m.launch(p.pos, key, &f, p.neighbours)
}

// injection is one delayed Inject: its event, the port, and the frame
// with its own copy of the bytes. Records are pooled on the medium.
type injection struct {
	ev    sim.Event
	m     *Medium
	port  *Port
	frame Frame
	data  []byte
}

// InjectAt copies f, bytes included, and injects the copy from port p at
// time at (see Inject). A tap that replays what it hears uses it: the
// sender may reuse its buffer once its launch returns.
func (m *Medium) InjectAt(p *Port, at sim.Time, f Frame) {
	var in *injection
	if n := len(m.injFree); n > 0 {
		in = m.injFree[n-1]
		m.injFree[n-1] = nil
		m.injFree = m.injFree[:n-1]
	} else {
		in = &injection{m: m}
	}
	in.port = p
	in.data = append(in.data[:0], f.Data...)
	in.frame = f
	in.frame.Data = in.data
	m.sched.AtEvent(&in.ev, at, in)
}

// Fire injects the frame and returns the record to the pool: the launch
// has copied the bytes into every reception by then.
func (in *injection) Fire() {
	m := in.m
	m.Inject(in.port, in.frame)
	in.port = nil
	m.injFree = append(m.injFree, in)
}

// launchKey keys the draws of the count-th launch from origin, mixing
// each coordinate in turn as rng.SplitIndex mixes an index.
func (m *Medium) launchKey(origin, count uint64) uint64 {
	return rng.Mix(rng.Mix(m.key^origin) ^ count)
}

// draws returns the stream of the launch keyed key at receiver rx, or at
// its sender for rx == sender. It is a value: it lives on the caller's
// stack.
func draws(key uint64, rx uint32) rng.Source {
	return rng.Make(key ^ rng.Mix(uint64(rx)))
}

// launch puts f on air from origin to receivers, with the draws of the
// launch keyed key. A receiver gets a reception if it does not listen,
// if it owns f.Dst, or if no radio filters f; at every other receiver f
// is a passage. launch may rewrite *f (see Frame.Finalize).
func (m *Medium) launch(origin geo.Point, key uint64, f *Frame, receivers []neighbour) TxInfo {
	if len(f.Data) == 0 {
		panic("phy: transmitting empty frame")
	}
	start := m.sched.Now()
	end := start + FrameAirTime(len(f.Data))
	// t1/t3: the first byte leaves the register d_out cycles before it
	// finishes on air (the register is loaded ahead of the air clock, so
	// this may precede AirStart). Clamped at time zero, which can only
	// matter for transmissions in the first few thousand cycles of a run.
	firstOut := start + CyclesPerByte
	src := draws(key, sender)
	if d := jitter(&src); d < firstOut {
		firstOut -= d
	} else {
		firstOut = 0
	}
	info := TxInfo{
		AirStart:      start,
		AirEnd:        end,
		FirstByteSPDR: firstOut,
	}
	if f.Finalize != nil {
		final := f.Finalize.Finalize(info.FirstByteSPDR)
		if len(final) != len(f.Data) {
			panic(fmt.Sprintf("phy: Finalize changed frame size %d -> %d", len(f.Data), len(final)))
		}
		f.Data = final
		f.Finalize = nil
	}
	m.stats.Transmissions++
	m.stats.BytesOnAir += uint64(len(f.Data))
	owner := everyone
	if f.Dst != 0 {
		owner = nobody
		if o, ok := m.owners[f.Dst]; ok {
			owner = o
		}
	}
	for _, n := range receivers {
		a := &m.air[n.rx]
		if owner == everyone || n.rx == owner || !a.listening {
			m.deliver(n, f, key, start, end)
			continue
		}
		// A passage: it corrupts the receptions it overlaps at the radio
		// and asserts carrier there until it ends.
		prop := sim.Time(n.delay)
		if start+prop < a.arrivalEnd {
			m.collide(m.radios[n.rx], start+prop)
		}
		a.end = max(a.end, end+prop)
	}
	for _, t := range m.taps {
		t(origin, *f, info)
	}
	return info
}

// collide loses every reception at rx that a frame arriving at arrive
// overlaps: each that ends after arrive.
func (m *Medium) collide(rx *Radio, arrive sim.Time) {
	for _, a := range rx.inflight {
		if arrive < a.end {
			a.lose(&m.stats.Collisions)
		}
	}
}

// pending is one in-flight delivery: its reception event, the arrival
// record and everything the reception needs, the frame's bytes included.
// A launch copies the bytes into each reception (at most a packet's 64),
// so the sender may reuse its buffer once Transmit returns. Records are
// pooled on the medium and each fires itself through its own event, so
// a steady-state delivery schedules with zero heap allocations and never
// touches the scheduler's free list.
type pending struct {
	ev        sim.Event
	m         *Medium
	rx        *Radio
	arr       arrival
	frame     Frame
	data      []byte
	measured  float64
	firstByte sim.Time
}

func (m *Medium) getPending() *pending {
	if n := len(m.pendFree); n > 0 {
		p := m.pendFree[n-1]
		m.pendFree[n-1] = nil
		m.pendFree = m.pendFree[:n-1]
		return p
	}
	return &pending{m: m}
}

// deliver puts f, launched at now and on air until end, on air at n.rx
// as a reception: an arrival record, the receiver's draws and a
// reception event.
func (m *Medium) deliver(n neighbour, f *Frame, key uint64, now, end sim.Time) {
	rx := m.radios[n.rx]
	a := &m.air[n.rx]
	prop := sim.Time(n.delay)
	arrive := now + prop
	p := m.getPending()
	p.rx = rx
	p.arr = arrival{end: end + prop}
	// Collision: overlapping frames corrupt each other ("node B either
	// receives the original signal or receives nothing in case of
	// collision").
	if arrive < a.arrivalEnd {
		m.collide(rx, arrive)
	}
	switch {
	case arrive < a.end:
		p.arr.lose(&m.stats.Collisions)
	case arrive < rx.txEnd:
		// Half-duplex: a receiver that is transmitting misses the frame.
		p.arr.lose(&m.stats.HalfDuplex)
	}
	a.end = max(a.end, p.arr.end)
	a.arrivalEnd = max(a.arrivalEnd, p.arr.end)
	rx.inflight = append(rx.inflight, &p.arr)
	p.data = append(p.data[:0], f.Data...)
	p.frame = *f
	p.frame.Data = p.data
	// t2/t4: first byte available in the receiving register one
	// byte-time plus propagation plus hardware delay after air start.
	src := draws(key, uint32(n.rx))
	p.firstByte = arrive + CyclesPerByte + jitter(&src)
	p.measured = m.measure(&src, n.dist+f.RangeBias)
	m.sched.AtEvent(&p.ev, p.arr.end, p)
}

// measure returns the distance a reception measures for a frame whose
// origin is dist feet away, attacker bias included: dist plus an error
// uniform in ±RangeError drawn from src, clamped at zero. A zero bound
// returns dist exactly.
func (m *Medium) measure(src *rng.Source, dist float64) float64 {
	if m.cfg.RangeError == 0 {
		return dist
	}
	d := dist + src.Uniform(-m.cfg.RangeError, m.cfg.RangeError)
	if d < 0 {
		d = 0
	}
	return d
}

// Fire completes one arrival: it unhooks the arrival record, hands
// uncorrupted frames to the receiver, and then returns the pending
// record to the pool. The handler reads the record's bytes, so the
// record is recycled only after it returns; a handler that transmits
// takes another record.
func (p *pending) Fire() {
	m, rx := p.m, p.rx
	rx.removeInflight(&p.arr)
	if !p.arr.lost && rx.handler != nil {
		m.stats.Deliveries++
		rx.handler(Reception{
			Frame:         p.frame,
			MeasuredDist:  p.measured,
			FirstByteSPDR: p.firstByte,
			End:           p.arr.end,
		})
	}
	p.rx = nil
	m.pendFree = append(m.pendFree, p)
}

func (r *Radio) removeInflight(target *arrival) {
	for i, a := range r.inflight {
		if a == target {
			last := len(r.inflight) - 1
			r.inflight[i] = r.inflight[last]
			r.inflight[last] = nil
			r.inflight = r.inflight[:last]
			return
		}
	}
}
