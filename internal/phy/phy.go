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

// jitter draws one per-byte hardware delay. It takes exactly one word.
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
	// Radio.Listen) does not receive the frame.
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
	// Finalize, if non-nil, rebuilds Data at transmit time given the
	// transmission's own first-byte register timestamp. It models a
	// timestamp field written into a later byte of the packet while the
	// first bytes are already on air (how the paper's reply carries
	// t3 - t2). The rebuilt data must have the same length as Data.
	Finalize func(firstByteSPDR sim.Time) []byte
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
// tunnels, replay attackers). origin is the true injection point.
type Tap func(origin geo.Point, f Frame, info TxInfo)

type interval struct {
	start, end sim.Time
}

func overlaps(a, b interval) bool { return a.start < b.end && b.start < a.end }

type arrival struct {
	span      interval
	corrupted bool
}

// passage is a frame on air at a radio that filters it out by address:
// it collides, can be corrupted and asserts carrier exactly as an
// arrival does, but has no pending record and no reception event.
// counted means it is in Stats.Deliveries and the radio's filtered
// count; it is cleared when the passage is corrupted.
type passage struct {
	span               interval
	corrupted, counted bool
}

// Radio is one node's transceiver at a fixed position.
type Radio struct {
	pos     geo.Point
	medium  *Medium
	handler Handler
	index   int32 // position in Medium.radios
	// listening is set by Listen: r filters addressed frames.
	listening bool
	// neighbours lists every other radio within range, in ascending
	// registration order: the receivers of every Transmit from r.
	neighbours []neighbour
	// inflight arrivals, for collision marking.
	inflight []*arrival
	// passages of frames addressed to other radios, pruned lazily;
	// passEnd is the latest end among them.
	passages []passage
	passEnd  sim.Time
	// filtered counts the passages counted as deliveries.
	filtered uint64
	// tx intervals for half-duplex suppression, pruned lazily.
	tx []interval
}

// Pos returns the radio's true position.
func (r *Radio) Pos() geo.Point { return r.pos }

// Medium returns the medium the radio is attached to.
func (r *Radio) Medium() *Medium { return r.medium }

// SetHandler installs the reception callback. A nil handler drops frames.
func (r *Radio) SetHandler(h Handler) { r.handler = h }

// Listen makes r filter frames by link address, as a mote's radio drops
// frames meant for other nodes. From then on a frame addressed to
// another address still occupies r's air — it collides, suffers from
// half-duplex and asserts carrier — but never reaches r's handler, and
// costs the scheduler no event. r still receives unaddressed frames,
// frames for any address it listens on, and frames for an address more
// than one radio listens on. Address 0 marks unaddressed frames, so
// listening on it changes nothing. A radio that never calls Listen
// receives every frame in range.
func (r *Radio) Listen(addrs ...uint32) {
	m := r.medium
	if m.owners == nil {
		m.owners = make(map[uint32]int32)
	}
	r.listening = true
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

// Filtered returns how many uncorrupted frames r filtered out because
// they were addressed to an address it does not listen on (see Listen). Each is counted
// when it goes on air, and withdrawn if a collision or half-duplex
// corrupts it later.
func (r *Radio) Filtered() uint64 { return r.filtered }

// livePassages drops r's passages that ended at or before now and
// returns the rest. When it drops them cannot be observed: a frame that
// has ended can neither overlap a later frame or transmission nor
// assert carrier.
func (r *Radio) livePassages(now sim.Time) []passage {
	if now >= r.passEnd {
		// All have ended, the common case: no need to read them.
		if len(r.passages) > 0 {
			r.passages = r.passages[:0]
		}
		return nil
	}
	for i, p := range r.passages {
		if p.span.end <= now {
			keep := r.passages[:i]
			for _, p := range r.passages[i+1:] {
				if p.span.end > now {
					keep = append(keep, p)
				}
			}
			r.passages = keep
			break
		}
	}
	return r.passages
}

// spoil corrupts a passage at r, withdrawing the delivery it was
// counted as, if any.
func (m *Medium) spoil(r *Radio, p *passage) {
	p.corrupted = true
	if p.counted {
		p.counted = false
		m.stats.Deliveries--
		r.filtered--
	}
}

// pruneTx drops r's transmissions that ended at or before now.
func (r *Radio) pruneTx(now sim.Time) {
	for i, iv := range r.tx {
		if iv.end <= now {
			keep := r.tx[:i]
			for _, iv := range r.tx[i+1:] {
				if iv.end > now {
					keep = append(keep, iv)
				}
			}
			r.tx = keep
			return
		}
	}
}

func (r *Radio) transmittingDuring(span interval) bool {
	for _, iv := range r.tx {
		if overlaps(iv, span) {
			return true
		}
	}
	return false
}

// Port is a fixed point that injects frames with no radio: a wormhole
// tunnel's exit or a replay attacker's antenna. Like a radio, it keeps
// a neighbour table — every radio within range, in ascending
// registration order — that NewPort builds and NewRadio extends, so an
// injection never searches for its receivers. A port is never a
// receiver, and it lives as long as its medium.
type Port struct {
	pos        geo.Point
	neighbours []neighbour
}

// Stats counts medium-level events, for tests and experiment reporting.
type Stats struct {
	Transmissions uint64
	// Deliveries counts uncorrupted frames at radios with a handler: the
	// receptions handed to a handler, plus the frames a listening radio
	// filtered out (Radio.Filtered). A filtered frame is counted when it
	// goes on air and withdrawn if it is corrupted later, so once every
	// frame has ended the count equals what it would be if no radio
	// listened.
	Deliveries uint64
	Collisions uint64
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

// Medium is the shared radio channel. It is bound to one sim.Scheduler and
// is not safe for concurrent use (the simulation is single-threaded).
type Medium struct {
	sched   *sim.Scheduler
	src     *rng.Source
	cfg     Config
	radios  []*Radio
	ports   []*Port
	grid    *geo.Grid   // spatial index over radio positions; cell = Range
	cands   []int32     // reusable candidate buffer for grid queries
	inRange []neighbour // reusable result buffer for resolve
	taps    []Tap
	stats   Stats
	// owners maps each link address a radio listens on to that radio's
	// index, or to everyone when several radios listen on it.
	owners map[uint32]int32
	// pendFree recycles pending-delivery records (and their pre-bound
	// fire closures) so steady-state delivery allocates nothing.
	pendFree []*pending
}

// Sentinel owners of a frame's destination address.
const (
	// everyone: the frame is unaddressed, or more than one radio listens
	// on its address, so no radio filters it.
	everyone int32 = -1
	// nobody: no radio listens on the frame's address.
	nobody int32 = -2
)

// NewMedium creates a medium over the given scheduler. src must be a
// dedicated stream (the medium consumes it for jitter and ranging error).
// It panics unless 0 < cfg.Range < about 5.7e11 ft and cfg.RangeError is
// finite and not negative.
func NewMedium(sched *sim.Scheduler, src *rng.Source, cfg Config) *Medium {
	if cfg.Range <= 0 {
		panic(fmt.Sprintf("phy: non-positive range %v", cfg.Range))
	}
	// The neighbour tables hold propagation delays in 32 bits.
	if cfg.Range/speedOfLightFtPerSec*sim.CPUHz >= math.MaxUint32 {
		panic(fmt.Sprintf("phy: range %v ft overflows a 32-bit propagation delay", cfg.Range))
	}
	if !(cfg.RangeError >= 0) || math.IsInf(cfg.RangeError, 1) {
		panic(fmt.Sprintf("phy: ranging error bound %v is not finite and non-negative", cfg.RangeError))
	}
	return &Medium{sched: sched, src: src, cfg: cfg, grid: geo.NewGrid(cfg.Range)}
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
	m.grid.Add(pos) // grid index == position in m.radios
	return r
}

// NewPort makes an injection port at pos and builds its neighbour table:
// the radios a launch from pos reaches, as for a radio at pos.
func (m *Medium) NewPort(pos geo.Point) *Port {
	p := &Port{pos: pos, neighbours: slices.Clone(m.resolve(pos))}
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

// Busy reports whether r senses carrier: some transmission is on air
// within range of r right now. Used by the MAC for CSMA.
func (m *Medium) Busy(r *Radio) bool {
	now := m.sched.Now()
	// Carrier sense cannot tell where a transmission came from without
	// demodulating; conservatively, any active transmission in range
	// asserts carrier, addressed to r or not. Sense via the radio's own
	// arrivals and passages plus its own tx state.
	for _, a := range r.inflight {
		if a.span.start <= now && now < a.span.end {
			return true
		}
	}
	for _, p := range r.livePassages(now) {
		if p.span.start <= now {
			return true
		}
	}
	r.pruneTx(now)
	return len(r.tx) > 0
}

// Transmit puts f on air from radio r, returning its timing. The sender
// becomes half-duplex busy for the duration.
func (m *Medium) Transmit(r *Radio, f Frame) TxInfo {
	now := m.sched.Now()
	r.pruneTx(now)
	info := m.launch(r.pos, &f, r.neighbours)
	span := interval{info.AirStart, info.AirEnd}
	r.tx = append(r.tx, span)
	// Transmitting corrupts anything the sender was receiving.
	for _, a := range r.inflight {
		if overlaps(a.span, span) && !a.corrupted {
			a.corrupted = true
			m.stats.HalfDuplex++
		}
	}
	for i := range r.livePassages(now) {
		if p := &r.passages[i]; overlaps(p.span, span) && !p.corrupted {
			m.spoil(r, p)
			m.stats.HalfDuplex++
		}
	}
	return info
}

// Inject puts f on air from port p, which must have been made by m's
// NewPort, with no sending radio: wormhole tunnel exits and replay
// attackers use this.
func (m *Medium) Inject(p *Port, f Frame) TxInfo {
	m.stats.Injections++
	return m.launch(p.pos, &f, p.neighbours)
}

// launch puts f on air from origin to receivers, which must be in
// ascending registration order — the order the medium's rng draws for
// them are taken in. A receiver gets a reception event if it does not
// listen, if it owns f.Dst, or if no radio filters f; every other
// receiver gets a passage. launch may rewrite *f (see Frame.Finalize).
func (m *Medium) launch(origin geo.Point, f *Frame, receivers []neighbour) TxInfo {
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
	if d := jitter(m.src); d < firstOut {
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
		final := f.Finalize(info.FirstByteSPDR)
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
		rx := m.radios[n.rx]
		m.deliver(rx, n, f, start, end, owner == everyone || n.rx == owner || !rx.listening)
	}
	for _, t := range m.taps {
		t(origin, *f, info)
	}
	return info
}

// pending is one in-flight delivery: the arrival record plus everything
// the reception callback needs. Records are pooled on the medium, and
// fire is bound to deliverNow exactly once (at pool-entry creation), so
// a steady-state delivery schedules with zero heap allocations.
type pending struct {
	m         *Medium
	rx        *Radio
	arr       arrival
	frame     Frame
	measured  float64
	firstByte sim.Time
	end       sim.Time
	fire      func()
}

func (m *Medium) getPending() *pending {
	if n := len(m.pendFree); n > 0 {
		p := m.pendFree[n-1]
		m.pendFree[n-1] = nil
		m.pendFree = m.pendFree[:n-1]
		return p
	}
	p := &pending{m: m}
	p.fire = p.deliverNow
	return p
}

// deliver puts f, launched at now and on air until end, on air at rx:
// as a reception event if event is set, as a passage otherwise. Both
// take the same collision and half-duplex marks and the same rng words,
// so which radios listen changes neither the medium's stream nor any
// reception.
func (m *Medium) deliver(rx *Radio, n neighbour, f *Frame, now, end sim.Time, event bool) {
	prop := sim.Time(n.delay)
	span := interval{now + prop, end + prop}
	corrupted := false
	// Collision: overlapping arrivals corrupt each other ("node B either
	// receives the original signal or receives nothing in case of
	// collision").
	for _, other := range rx.inflight {
		if overlaps(other.span, span) {
			other.corrupted = true
			corrupted = true
			m.stats.Collisions++
		}
	}
	for i := range rx.livePassages(now) {
		if other := &rx.passages[i]; overlaps(other.span, span) {
			m.spoil(rx, other)
			corrupted = true
			m.stats.Collisions++
		}
	}
	// Half-duplex: a receiver that is transmitting misses the frame.
	rx.pruneTx(now)
	if rx.transmittingDuring(span) {
		corrupted = true
		m.stats.HalfDuplex++
	}
	if !event {
		// Nothing reads a passage's timestamp or measurement: take the
		// words their draws would — one for the jitter, one for the
		// ranging error if it is bounded — without the arithmetic.
		m.src.Uint64()
		if m.cfg.RangeError != 0 {
			m.src.Uint64()
		}
		counted := !corrupted && rx.handler != nil
		rx.passages = append(rx.passages, passage{span: span, corrupted: corrupted, counted: counted})
		rx.passEnd = max(rx.passEnd, span.end)
		if counted {
			m.stats.Deliveries++
			rx.filtered++
		}
		return
	}
	p := m.getPending()
	p.rx = rx
	p.arr = arrival{span: span, corrupted: corrupted}
	rx.inflight = append(rx.inflight, &p.arr)
	p.frame = *f
	// t2/t4: first byte available in the receiving register one
	// byte-time plus propagation plus hardware delay after air start.
	p.firstByte = now + CyclesPerByte + prop + jitter(m.src)
	p.measured = m.measure(n.dist + f.RangeBias)
	p.end = span.end
	m.sched.At(span.end, p.fire)
}

// measure returns the distance a reception measures for a frame whose
// origin is dist feet away, attacker bias included: dist plus an error
// uniform in ±RangeError, clamped at zero. A zero bound returns dist
// exactly and takes no word.
func (m *Medium) measure(dist float64) float64 {
	if m.cfg.RangeError == 0 {
		return dist
	}
	d := dist + m.src.Uniform(-m.cfg.RangeError, m.cfg.RangeError)
	if d < 0 {
		d = 0
	}
	return d
}

// deliverNow completes one arrival: it unhooks the arrival record,
// returns the pending record to the pool (the Reception is copied out
// first, so the handler may transmit and reuse it immediately), and
// hands uncorrupted frames to the receiver.
func (p *pending) deliverNow() {
	m, rx := p.m, p.rx
	rec := Reception{
		Frame:         p.frame,
		MeasuredDist:  p.measured,
		FirstByteSPDR: p.firstByte,
		End:           p.end,
	}
	corrupted := p.arr.corrupted
	rx.removeInflight(&p.arr)
	p.rx = nil
	p.frame = Frame{} // drop the Data reference while pooled
	m.pendFree = append(m.pendFree, p)
	if corrupted || rx.handler == nil {
		return
	}
	m.stats.Deliveries++
	rx.handler(rec)
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
