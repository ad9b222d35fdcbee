package sim

import "testing"

// TestStaleHandleAfterRecycle pins the generation-counter contract: a
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
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !secondFired {
		t.Fatal("second event did not fire after stale Cancel attempt")
	}

	// And the successor's own Handle is now stale too.
	if h2.Cancel() {
		t.Fatal("Handle to a fired event reported a successful Cancel")
	}
}

// TestCancelledEventRecycles pins that cancel-then-pop also returns the
// struct to the free list with a bumped generation.
func TestCancelledEventRecycles(t *testing.T) {
	s := New()
	h := s.At(5, func() { t.Fatal("cancelled event fired") })
	if !h.Cancel() {
		t.Fatal("Cancel failed on pending event")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	fired := false
	h2 := s.At(6, func() { fired = true })
	if h2.ev != h.ev {
		t.Fatal("cancelled event struct was not recycled")
	}
	if h.Cancel() {
		t.Fatal("stale Handle to a cancelled event cancelled its successor")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
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
