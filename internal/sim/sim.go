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
	"errors"
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

// Micros converts microseconds of wall time to cycles.
func Micros(us float64) Time { return Time(us * CPUHz / 1e6) }

// Seconds converts seconds of wall time to cycles.
func Seconds(s float64) Time { return Time(s * CPUHz) }

// Float returns t as a float64 cycle count.
func (t Time) Float() float64 { return float64(t) }

// Seconds returns t in seconds of simulated wall time.
func (t Time) Seconds() float64 { return float64(t) / CPUHz }

// String implements fmt.Stringer with both cycles and milliseconds.
func (t Time) String() string {
	return fmt.Sprintf("%dcy (%.3fms)", uint64(t), float64(t)/CPUHz*1e3)
}

// ErrStopped is returned by Run when the scheduler was stopped explicitly
// before the event queue drained.
var ErrStopped = errors.New("sim: scheduler stopped")

// event is a scheduled callback. Events are pooled: after firing (or
// after a cancelled event is popped) the struct returns to the
// scheduler's free list with its generation bumped, so a Handle held
// across the recycle can never cancel the event's next occupant.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among equal times
	gen uint64 // recycle generation, checked by Handle.Cancel
	fn  func()
	// index is ≥ 0 while queued and -1 once popped. The wheel only
	// distinguishes queued from popped; the test heap stores its slot here.
	index int
	// next chains events in a timing-wheel slot (intrusive list, so the
	// wheel never allocates per pending event).
	next *event
}

// Handle identifies a scheduled event so it can be cancelled. A Handle
// is pinned to the event's generation: once the event fires and its
// struct is recycled for a later At, the stale Handle becomes inert.
type Handle struct {
	ev  *event
	s   *Scheduler
	gen uint64
}

// Cancel removes the event from the queue if it has not fired yet and
// reports whether it was cancelled.
func (h Handle) Cancel() bool {
	if h.ev == nil || h.ev.gen != h.gen || h.ev.index < 0 || h.ev.fn == nil {
		return false
	}
	h.ev.fn = nil
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
	// push enqueues ev (setting ev.index ≥ 0). ev.at may lie before a
	// previously popped event's time only if the scheduler allows it
	// (RunUntil advances the clock past pending events' times, never the
	// reverse), but implementations must accept any at ≥ the last pop.
	push(ev *event)
	// pop removes and returns the minimum event by (at, seq), setting its
	// index to -1. Call only when size() > 0.
	pop() *event
	// size returns the number of queued events, including cancelled ones
	// not yet popped.
	size() int64
	// nextAt returns the time of the minimum queued event. ok is false
	// when the queue is empty.
	nextAt() (t Time, ok bool)
}

// Config parameterizes a Scheduler. The zero value reproduces New().
type Config struct {
	// PendingHint is the expected steady-state number of pending events;
	// it presizes the event free list. Zero means unknown.
	PendingHint int64
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

// Scheduler owns the virtual clock and the event queue. The zero value is
// ready to use. Scheduler is not safe for concurrent use: the
// simulation is single-threaded by design (determinism), and experiments
// parallelize across independent Scheduler instances instead.
type Scheduler struct {
	now        Time
	seq        uint64
	q          queue
	free       []*event // recycled event structs, see event.gen
	stopped    bool
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
// sizing hint and instrumentation.
func NewWithConfig(cfg Config) *Scheduler {
	// PendingHint presizes the free list so a metro-scale run reaches
	// steady state without reallocation churn.
	capHint := int64(initialQueueCap)
	if cfg.PendingHint > capHint {
		capHint = min(cfg.PendingHint, 1<<22)
	}
	return &Scheduler{
		q:     newWheelQueue(),
		free:  make([]*event, 0, capHint),
		depth: cfg.Depth,
	}
}

// lazyQueue returns the scheduler's queue, initializing the wheel for a
// zero-value Scheduler.
func (s *Scheduler) lazyQueue() queue {
	if s.q == nil {
		s.q = newWheelQueue()
	}
	return s.q
}

// recycle returns a popped event to the free list. Bumping the
// generation first invalidates every outstanding Handle to it.
func (s *Scheduler) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	s.free = append(s.free, ev)
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Fired returns the number of events executed so far, a cheap progress and
// test metric.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending returns the number of events still queued. It is an int64 so
// million-event schedules cannot truncate on 32-bit builds.
func (s *Scheduler) Pending() int64 {
	if s.q == nil {
		return 0
	}
	return s.q.size()
}

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
// (at < Now) panics: it is always a protocol bug.
func (s *Scheduler) At(at Time, fn func()) Handle {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		ev.at = at
		ev.seq = s.seq
		ev.fn = fn
	} else {
		ev = &event{at: at, seq: s.seq, fn: fn}
	}
	s.seq++
	q := s.lazyQueue()
	q.push(ev)
	n := q.size()
	if n > s.maxPending {
		s.maxPending = n
	}
	s.depth.Observe(float64(n))
	return Handle{ev: ev, s: s, gen: ev.gen}
}

// After schedules fn to run delay cycles from now.
func (s *Scheduler) After(delay Time, fn func()) Handle {
	return s.At(s.now+delay, fn)
}

// Step fires the next event, advancing the clock to its time. It reports
// whether an event was executed.
func (s *Scheduler) Step() bool {
	if s.q == nil {
		return false
	}
	for s.q.size() > 0 {
		ev := s.q.pop()
		if ev.fn == nil { // cancelled
			s.recycle(ev)
			continue
		}
		s.now = ev.at
		fn := ev.fn
		// Recycle before running fn: all fields are copied out, and fn
		// itself may schedule new events that reuse this struct.
		s.recycle(ev)
		s.fired++
		fn()
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called. It returns
// ErrStopped if stopped early, nil if drained.
func (s *Scheduler) Run() error {
	s.stopped = false
	for !s.stopped {
		if !s.Step() {
			return nil
		}
	}
	return ErrStopped
}

// RunUntil executes events with time ≤ deadline, then advances the clock
// to deadline. Events scheduled beyond deadline remain queued.
func (s *Scheduler) RunUntil(deadline Time) {
	s.stopped = false
	for !s.stopped && s.q != nil {
		at, ok := s.q.nextAt()
		if !ok || at > deadline {
			break
		}
		s.Step()
	}
	if !s.stopped && s.now < deadline {
		s.now = deadline
	}
}

// Stop makes Run/RunUntil return after the current event completes.
func (s *Scheduler) Stop() { s.stopped = true }
