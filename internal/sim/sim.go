// Package sim is a deterministic discrete-event simulation kernel with a
// cycle-resolution virtual clock.
//
// It replaces the TinyOS Nido simulator the paper used: every protocol
// action in this repository — radio byte shifts, MAC backoffs, timer
// expirations, base-station processing — is an event on one Scheduler.
// Time is measured in CPU clock cycles of a 7.3728 MHz MICA2-class mote,
// because the paper's round-trip-time detector (Figure 4) is calibrated in
// CPU cycles.
//
// Determinism: events at equal times fire in scheduling order (FIFO),
// which combined with the seeded rng package makes every run reproducible.
// The event queue is a hierarchical timing wheel (wheel.go) that pops in
// (at, seq) order. A binary min-heap in the test files is its oracle: the
// order tests drive the same Scheduler over both and require identical
// fire sequences (see DESIGN.md §13).
package sim

import (
	"fmt"

	"beaconsec/internal/metrics"
)

// Time is a point in virtual time, in CPU clock cycles.
type Time uint64

// CPUHz is the simulated mote CPU frequency (MICA2 ATmega128L).
const CPUHz = 7_372_800

// Duration helpers.

// Millis converts milliseconds of wall time to cycles.
func Millis(ms float64) Time { return Time(ms * CPUHz / 1e3) }

// Seconds converts seconds of wall time to cycles.
func Seconds(s float64) Time { return Time(s * CPUHz) }

// String implements fmt.Stringer with both cycles and milliseconds.
func (t Time) String() string {
	return fmt.Sprintf("%dcy (%.3fms)", uint64(t), float64(t)/CPUHz*1e3)
}

// Handler is what an event runs when it fires. Every event fires
// through one, pooled or owned (see Event).
type Handler interface {
	Fire()
}

// funcHandler adapts a func to Handler for At and After. A func value
// is pointer-shaped, so storing one in a Handler does not allocate.
type funcHandler func()

// Fire calls f.
func (f funcHandler) Fire() { f() }

// Event is the storage of one scheduled firing. Its storage is either
// pooled or owned:
//
//   - At, After and AtHandler take an Event from the scheduler's free
//     list and return a Handle to it. After it fires (or after a
//     cancelled one is popped) it goes back to the free list.
//   - AtEvent files an Event the caller owns, usually embedded in the
//     state its Handler fires. The scheduler never recycles it, it has
//     no Handle, and the caller may file it again once it has fired,
//     from inside its own Fire too. The zero Event is ready to use.
//
// Its fields belong to the scheduler.
type Event struct {
	at Time
	// seq is the event's unique schedule number: the tie-break among
	// equal times (FIFO) and the filing a Handle names.
	seq uint64
	// h is nil once cancelled, recycled or fired.
	h Handler
	// next chains events in a timing-wheel slot (intrusive list, so the
	// wheel never allocates per pending event).
	next *Event
	// queued is set from push to pop.
	queued bool
	// pooled marks free-list storage.
	pooled bool
}

// Handle identifies a pooled event so it can be cancelled. A Handle is
// pinned to the event's seq: once the event fires and its struct is
// recycled for a later At, which gives it a new seq, the stale Handle
// becomes inert.
type Handle struct {
	ev  *Event
	s   *Scheduler
	seq uint64
}

// Cancel removes the event from the queue if it has not fired yet and
// reports whether it was cancelled.
func (h Handle) Cancel() bool {
	if h.ev == nil || h.ev.seq != h.seq || !h.ev.queued || h.ev.h == nil {
		return false
	}
	h.ev.h = nil
	if h.s != nil {
		h.s.cancelled++
	}
	return true
}

// queue is the event-queue contract the Scheduler drives: the timing
// wheel in production, the min-heap oracle in tests. An implementation
// delivers events in ascending (at, seq) order — the determinism
// contract — and keeps cancelled events enqueued until popped (lazy
// cancellation), so size() and pop sequences are identical across
// implementations.
type queue interface {
	// push enqueues ev (setting ev.queued). ev.at may lie before a
	// previously popped event's time only if the scheduler allows it
	// (RunUntil advances the clock past pending events' times, never the
	// reverse), but implementations must accept any at ≥ the last pop.
	push(ev *Event)
	// pop removes and returns the minimum event by (at, seq), clearing
	// its queued flag. Call only when size() > 0.
	pop() *Event
	// size returns the number of queued events, including cancelled ones
	// not yet popped.
	size() int64
	// nextAt returns the time of the minimum queued event. ok is false
	// when the queue is empty.
	nextAt() (t Time, ok bool)
}

// Config parameterizes a Scheduler. The zero value reproduces New().
type Config struct {
	// Depth, when non-nil, observes the queue depth after every schedule
	// — the standing event population histogram. Nil disables (no cost
	// beyond one predictable branch).
	Depth *metrics.Histogram
}

// DepthHistogram returns a histogram sized for Config.Depth observations:
// geometric buckets from 1 to ~8M pending events, covering everything
// from paper-scale runs to metro-scale standing populations.
func DepthHistogram() *metrics.Histogram {
	return metrics.NewHistogram(metrics.ExpBounds(1, 2, 24)...)
}

// Scheduler owns the virtual clock and the event queue. Build one with
// New or NewWithConfig. Scheduler is not safe for concurrent use: the
// simulation is single-threaded by design (determinism), and experiments
// parallelize across independent Scheduler instances instead.
type Scheduler struct {
	now        Time
	seq        uint64
	q          queue
	free       []*Event // recycled pooled events, see Event
	fired      uint64
	cancelled  uint64
	maxPending int64
	depth      *metrics.Histogram
}

// initialQueueCap pre-sizes the wheel's ready buffer and the free list so
// a typical protocol run reaches its steady state without growing either
// slice.
const initialQueueCap = 256

// New returns a Scheduler starting at time zero.
func New() *Scheduler {
	return NewWithConfig(Config{})
}

// NewWithConfig returns a Scheduler starting at time zero with the given
// instrumentation.
func NewWithConfig(cfg Config) *Scheduler {
	return &Scheduler{
		q:     newWheelQueue(),
		free:  make([]*Event, 0, initialQueueCap),
		depth: cfg.Depth,
	}
}

// recycle returns a popped pooled event to the free list.
func (s *Scheduler) recycle(ev *Event) {
	ev.h = nil
	s.free = append(s.free, ev)
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Fired returns the number of events executed so far, a cheap progress and
// test metric.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending returns the number of events still queued. It is an int64 so
// million-event schedules cannot truncate on 32-bit builds.
func (s *Scheduler) Pending() int64 { return s.q.size() }

// Stats is the scheduler's counter snapshot, for run telemetry.
type Stats struct {
	// Events is the number of events executed (same as Fired).
	Events uint64 `json:"events"`
	// Scheduled is the number of events ever enqueued (seq allocations).
	Scheduled uint64 `json:"scheduled"`
	// Cancelled is the number of events removed via Handle.Cancel before
	// firing.
	Cancelled uint64 `json:"cancelled"`
	// MaxPending is the high-water mark of the event queue. int64 for the
	// same 32-bit-safety reason as Pending.
	MaxPending int64 `json:"max_pending"`
	// VirtualCycles is the current virtual clock, in CPU cycles.
	VirtualCycles uint64 `json:"virtual_cycles"`
}

// Stats returns the scheduler's counter snapshot.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Events:        s.fired,
		Scheduled:     s.seq,
		Cancelled:     s.cancelled,
		MaxPending:    s.maxPending,
		VirtualCycles: uint64(s.now),
	}
}

// Merge adds another scheduler's counters field-wise; the virtual clock
// and queue high-water mark keep the maximum (merged runs are parallel
// universes, not one longer run).
func (st *Stats) Merge(o Stats) {
	st.Events += o.Events
	st.Scheduled += o.Scheduled
	st.Cancelled += o.Cancelled
	if o.MaxPending > st.MaxPending {
		st.MaxPending = o.MaxPending
	}
	if o.VirtualCycles > st.VirtualCycles {
		st.VirtualCycles = o.VirtualCycles
	}
}

// At schedules fn to run at absolute time at. Scheduling in the past
// (at < Now) panics: it is always a protocol bug. fn must not be nil.
func (s *Scheduler) At(at Time, fn func()) Handle {
	return s.AtHandler(at, funcHandler(fn))
}

// After schedules fn to run delay cycles from now.
func (s *Scheduler) After(delay Time, fn func()) Handle {
	return s.AtHandler(s.now+delay, funcHandler(fn))
}

// AtHandler schedules h to fire at absolute time at on a pooled event,
// as At does for a func.
func (s *Scheduler) AtHandler(at Time, h Handler) Handle {
	var ev *Event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &Event{pooled: true}
	}
	s.push(ev, at, h)
	return Handle{ev: ev, s: s, seq: ev.seq}
}

// AtEvent files ev, storage the caller owns, to fire h at absolute time
// at. Filing an event that is still queued panics, as scheduling in the
// past does: the queue holds each event once.
func (s *Scheduler) AtEvent(ev *Event, at Time, h Handler) {
	if ev.queued {
		panic(fmt.Sprintf("sim: event at %v filed again while queued", ev.at))
	}
	s.push(ev, at, h)
}

// push files ev to fire h at time at, taking the next seq.
func (s *Scheduler) push(ev *Event, at Time, h Handler) {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	ev.at = at
	ev.seq = s.seq
	ev.h = h
	s.seq++
	s.q.push(ev)
	n := s.q.size()
	if n > s.maxPending {
		s.maxPending = n
	}
	s.depth.Observe(float64(n))
}

// Step fires the next event, advancing the clock to its time. It reports
// whether an event was executed.
func (s *Scheduler) Step() bool {
	for s.q.size() > 0 {
		if s.fireNext() {
			return true
		}
	}
	return false
}

// fireNext pops the head event and, unless it was cancelled, advances
// the clock to its time and fires it. It reports whether a handler ran.
// Call only when the queue is not empty.
func (s *Scheduler) fireNext() bool {
	ev := s.q.pop()
	h := ev.h
	// Release ev before firing h: h may file new events, an owned ev
	// among them, and a pooled ev can be the next one At takes.
	if ev.pooled {
		s.recycle(ev)
	} else {
		ev.h = nil
	}
	if h == nil { // cancelled
		return false
	}
	s.now = ev.at
	s.fired++
	h.Fire()
	return true
}

// Run executes events until the queue drains.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with time ≤ deadline, then advances the clock
// to deadline. Events scheduled beyond deadline, cancelled ones too,
// remain queued: the deadline is checked before every pop.
func (s *Scheduler) RunUntil(deadline Time) {
	for {
		at, ok := s.q.nextAt()
		if !ok || at > deadline {
			break
		}
		s.fireNext()
	}
	if s.now < deadline {
		s.now = deadline
	}
}
