package sim

import "testing"

// TestStaleHandleAfterRecycle pins the stale-handle contract: a
// Handle to an event that already fired must become inert once the
// event struct is recycled for a later At — cancelling through it must
// neither report success nor kill the struct's new occupant.
func TestStaleHandleAfterRecycle(t *testing.T) {
	s := New()
	firstFired := false
	h1 := s.At(10, func() { firstFired = true })
	if !s.Step() {
		t.Fatal("Step fired nothing")
	}
	if !firstFired {
		t.Fatal("first event did not fire")
	}

	// The freshly recycled struct is reused by the next At.
	secondFired := false
	h2 := s.At(20, func() { secondFired = true })
	if h2.ev != h1.ev {
		t.Fatalf("event struct was not recycled (free list broken?)")
	}
	if h1.Cancel() {
		t.Fatal("stale Handle cancelled its successor's event")
	}
	s.Run()
	if !secondFired {
		t.Fatal("second event did not fire after stale Cancel attempt")
	}

	// And the successor's own Handle is now stale too.
	if h2.Cancel() {
		t.Fatal("Handle to a fired event reported a successful Cancel")
	}
}

// TestCancelledEventRecycles pins that cancel-then-pop also returns the
// struct to the free list, and that its Handle goes stale.
func TestCancelledEventRecycles(t *testing.T) {
	s := New()
	h := s.At(5, func() { t.Fatal("cancelled event fired") })
	if !h.Cancel() {
		t.Fatal("Cancel failed on pending event")
	}
	s.Run()
	fired := false
	h2 := s.At(6, func() { fired = true })
	if h2.ev != h.ev {
		t.Fatal("cancelled event struct was not recycled")
	}
	if h.Cancel() {
		t.Fatal("stale Handle to a cancelled event cancelled its successor")
	}
	s.Run()
	if !fired {
		t.Fatal("successor of a cancelled event did not fire")
	}
}

// TestScheduleFireZeroAlloc pins the free-list payoff: once the queue
// and free list are warm, a schedule→fire cycle performs zero heap
// allocations.
func TestScheduleFireZeroAlloc(t *testing.T) {
	s := New()
	count := 0
	fn := func() { count++ }
	cycle := func() {
		s.At(s.Now()+1, fn)
		s.Step()
	}
	for i := 0; i < 10; i++ { // warm the free list
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("steady-state schedule+fire allocates %.1f times per op, want 0", avg)
	}
	if count == 0 {
		t.Fatal("events did not fire")
	}
}

// counter is an owned event that counts its firings.
type counter struct {
	ev Event
	n  int
}

func (c *counter) Fire() { c.n++ }

// TestOwnedScheduleFireZeroAlloc pins the owned path: filing an event
// the caller owns and firing it never touches the allocator, not even
// on a cold scheduler's free list.
func TestOwnedScheduleFireZeroAlloc(t *testing.T) {
	s := New()
	c := &counter{}
	cycle := func() {
		s.AtEvent(&c.ev, s.Now()+1, c)
		s.Step()
	}
	cycle() // warm the ready buffer
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("owned schedule+fire allocates %.1f times per op, want 0", avg)
	}
	if c.n == 0 {
		t.Fatal("owned event did not fire")
	}
	if len(s.free) != 0 {
		t.Fatalf("owned events reached the free list (%d pooled)", len(s.free))
	}
}

// TestAtEventQueuedPanics pins the queued check: filing an owned event
// that is still queued panics and leaves the queue as it was, so the
// event fires once, at its first time.
func TestAtEventQueuedPanics(t *testing.T) {
	s := New()
	c := &counter{}
	s.AtEvent(&c.ev, 10, c)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("filing a queued event did not panic")
			}
		}()
		s.AtEvent(&c.ev, 20, c)
	}()
	s.Run()
	if c.n != 1 || s.Now() != 10 || s.Fired() != 1 {
		t.Fatalf("after the rejected refile: fired %d times, clock %v, Fired %d; want 1, 10, 1",
			c.n, s.Now(), s.Fired())
	}
	// Once fired, the event may be filed again.
	s.AtEvent(&c.ev, 20, c)
	s.Run()
	if c.n != 2 || s.Now() != 20 {
		t.Fatalf("refiled event: fired %d times, clock %v; want 2, 20", c.n, s.Now())
	}
}

// relay is an owned event whose Fire files the same event again until
// it has fired links times.
type relay struct {
	ev    Event
	s     *Scheduler
	n     int
	links int
}

func (r *relay) Fire() {
	r.n++
	if r.n < r.links {
		r.s.AtEvent(&r.ev, r.s.Now()+3, r)
	}
}

// TestOwnedEventRefiresItself pins that Fire may file its own event: it
// is off the queue before Fire runs. The chain interleaves with a
// pooled event at equal times, which must keep FIFO order.
func TestOwnedEventRefiresItself(t *testing.T) {
	s := New()
	r := &relay{s: s, links: 1000}
	s.AtEvent(&r.ev, 0, r)
	var order []int
	s.At(6, func() { order = append(order, r.n) })
	s.Run()
	if r.n != 1000 || s.Now() != 999*3 || s.Fired() != 1001 {
		t.Fatalf("chain fired %d links, clock %v, Fired %d; want 1000, %v, 1001",
			r.n, s.Now(), s.Fired(), Time(999*3))
	}
	// Link 2 (time 6) was filed at time 3, after the closure's seq, so the
	// closure sees links 0 and 1 only.
	if len(order) != 1 || order[0] != 2 {
		t.Fatalf("closure at time 6 saw %v links fired, want [2]", order)
	}
}

// BenchmarkScheduleFire measures the steady-state kernel hot path: one
// At plus the Step that fires it, on a warm scheduler.
func BenchmarkScheduleFire(b *testing.B) {
	s := New()
	fn := func() {}
	for i := 0; i < 10; i++ {
		s.At(s.Now()+1, fn)
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+1, fn)
		s.Step()
	}
}

// BenchmarkScheduleFireOwned is BenchmarkScheduleFire on an owned event:
// one AtEvent plus the Step that fires it.
func BenchmarkScheduleFireOwned(b *testing.B) {
	s := New()
	c := &counter{}
	s.AtEvent(&c.ev, s.Now()+1, c)
	s.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AtEvent(&c.ev, s.Now()+1, c)
		s.Step()
	}
}

// BenchmarkScheduleFireDepth measures the same cycle with a standing
// queue of 1000 pending events, so the queue cost is realistic for a
// mid-run protocol simulation.
func BenchmarkScheduleFireDepth(b *testing.B) {
	s := New()
	fn := func() {}
	for i := 0; i < 1000; i++ {
		s.At(s.Now()+Time(1000+i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+1, fn)
		s.Step()
	}
}
