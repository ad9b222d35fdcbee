package sim

import (
	"testing"

	"beaconsec/internal/rng"
)

func TestTimeConversions(t *testing.T) {
	tests := []struct {
		name string
		got  Time
		want Time
	}{
		{"one second", Seconds(1), CPUHz},
		{"one millisecond", Millis(1), CPUHz / 1000},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.got != tt.want {
				t.Errorf("got %d cycles, want %d", tt.got, tt.want)
			}
		})
	}
}

func TestTimeString(t *testing.T) {
	s := Time(CPUHz).String()
	if s == "" {
		t.Error("empty String()")
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("events fired in order %v", order)
	}
	if s.Now() != 30 {
		t.Errorf("clock at %v after run, want 30", s.Now())
	}
}

func TestFIFOAtEqualTimes(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestRandomOrderIsSorted(t *testing.T) {
	// Property: regardless of insertion order, execution times are
	// non-decreasing.
	src := rng.New(77)
	s := New()
	var times []Time
	for i := 0; i < 1000; i++ {
		at := Time(src.Intn(10000))
		s.At(at, func() { times = append(times, s.Now()) })
	}
	s.Run()
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("time went backwards at event %d: %v < %v", i, times[i], times[i-1])
		}
	}
	if len(times) != 1000 {
		t.Errorf("fired %d events, want 1000", len(times))
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var at Time
	s.At(100, func() {
		s.After(50, func() { at = s.Now() })
	})
	s.Run()
	if at != 150 {
		t.Errorf("After fired at %v, want 150", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(50, func() {})
	})
	s.Run()
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	h := s.At(10, func() { fired = true })
	if !h.Cancel() {
		t.Error("Cancel returned false for pending event")
	}
	if h.Cancel() {
		t.Error("second Cancel returned true")
	}
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if s.Now() != 0 {
		// Cancelled events do not advance the clock when skipped from
		// the head of the queue via Step's drain loop, but the clock may
		// legitimately stay at 0 since nothing executed.
		t.Logf("clock = %v after cancelled-only run", s.Now())
	}
}

func TestCancelZeroHandle(t *testing.T) {
	var h Handle
	if h.Cancel() {
		t.Error("zero Handle Cancel returned true")
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(12) fired %v", fired)
	}
	if s.Now() != 12 {
		t.Errorf("clock = %v after RunUntil(12)", s.Now())
	}
	s.RunUntil(100)
	if len(fired) != 4 {
		t.Errorf("second RunUntil fired total %v", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(500)
	if s.Now() != 500 {
		t.Errorf("idle RunUntil left clock at %v", s.Now())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestFiredCounter(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.At(Time(i), func() {})
	}
	h := s.At(9, func() {})
	h.Cancel()
	s.Run()
	if s.Fired() != 5 {
		t.Errorf("Fired = %d, want 5 (cancelled events don't count)", s.Fired())
	}
}

func TestReentrantScheduling(t *testing.T) {
	// An event chain where each event schedules the next models protocol
	// timers; 1000 links must run to completion.
	s := New()
	count := 0
	var step func()
	step = func() {
		count++
		if count < 1000 {
			s.After(3, step)
		}
	}
	s.At(0, step)
	s.Run()
	if count != 1000 {
		t.Errorf("chain executed %d links", count)
	}
	if s.Now() != Time(999*3) {
		t.Errorf("clock = %v, want %v", s.Now(), Time(999*3))
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.At(Time(j%97), func() {})
		}
		s.Run()
	}
}
