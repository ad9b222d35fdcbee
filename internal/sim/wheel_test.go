package sim

import (
	"math/rand"
	"testing"
)

// fire records one executed event for order comparison.
type fire struct {
	id int
	at Time
}

// decodeDelta turns three script bytes into a schedule delay spanning the
// horizons the wheel files differently: same-tick ties, bottom-rung
// near-future, mid-rung, and far-future overflow rungs.
func decodeDelta(class, a, b byte) Time {
	v := Time(a)<<8 | Time(b)
	switch class % 5 {
	case 0:
		return 0 // same-tick tie
	case 1:
		return v % 64 // bottom rung
	case 2:
		return v % 4096
	case 3:
		return v << 10 // mid rungs
	default:
		return v << 28 // far-future overflow rungs
	}
}

// owned is caller-owned event storage for the oracle scripts. It logs
// its firing as the scripts' closures do, then returns to its side's
// spare list, so a script files it again only after it fired.
type owned struct {
	ev    Event
	id    int
	s     *Scheduler
	log   *[]fire
	spare *[]*owned
}

func (o *owned) Fire() {
	*o.log = append(*o.log, fire{o.id, o.s.Now()})
	*o.spare = append(*o.spare, o)
}

// fileOwned files a spare owned event (a new one if none is spare) to
// log id at time at on s.
func fileOwned(s *Scheduler, log *[]fire, spare *[]*owned, id int, at Time) {
	var o *owned
	if n := len(*spare); n > 0 {
		o = (*spare)[n-1]
		*spare = (*spare)[:n-1]
	} else {
		o = &owned{s: s, log: log, spare: spare}
	}
	o.id = id
	s.AtEvent(&o.ev, at, o)
}

// diffQueues drives a heap scheduler and a wheel scheduler through the
// same schedule/cancel/step/run-until script and fails on the first
// divergence in fire order, clock, pending count, cancel outcome, or
// final stats. This is the wheel's oracle harness (the geo.Grid
// brute-force pattern): the heap's (at, seq) order is the contract.
// Half the schedules file pooled closures, the other half owned events
// (which have no Handle to cancel). A laned run widens the wheel before
// the script starts, as a queue of lanedPending events would.
func diffQueues(t *testing.T, script []byte, laned bool) {
	t.Helper()
	heap := newHeapScheduler(Config{})
	wheel := New()
	w, ok := wheel.q.(*wheelQueue)
	if !ok {
		t.Fatal("New did not select the wheel queue")
	}
	if laned {
		w.widen()
	}

	var hLog, wLog []fire
	var hSpare, wSpare []*owned
	type handlePair struct{ h, w Handle }
	var handles []handlePair
	tag := 0

	i := 0
	next := func() byte {
		if i >= len(script) {
			return 0
		}
		b := script[i]
		i++
		return b
	}
	checkClocks := func(op string) {
		t.Helper()
		if heap.Now() != wheel.Now() {
			t.Fatalf("%s: clock diverged: heap %v wheel %v", op, heap.Now(), wheel.Now())
		}
		if heap.Pending() != wheel.Pending() {
			t.Fatalf("%s: pending diverged: heap %d wheel %d", op, heap.Pending(), wheel.Pending())
		}
	}

	for i < len(script) {
		switch op := next(); op % 6 {
		case 0: // schedule a pooled closure
			d := decodeDelta(next(), next(), next())
			id := tag
			tag++
			at := heap.Now() + d
			hh := heap.At(at, func() { hLog = append(hLog, fire{id, heap.Now()}) })
			wh := wheel.At(at, func() { wLog = append(wLog, fire{id, wheel.Now()}) })
			handles = append(handles, handlePair{hh, wh})
		case 1: // file an owned event
			d := decodeDelta(next(), next(), next())
			id := tag
			tag++
			at := heap.Now() + d
			fileOwned(heap, &hLog, &hSpare, id, at)
			fileOwned(wheel, &wLog, &wSpare, id, at)
		case 2: // cancel a (possibly stale) handle
			if len(handles) > 0 {
				k := int(next()) % len(handles)
				ch, cw := handles[k].h.Cancel(), handles[k].w.Cancel()
				if ch != cw {
					t.Fatalf("cancel outcome diverged: heap %v wheel %v", ch, cw)
				}
			}
		case 3: // single step
			sh, sw := heap.Step(), wheel.Step()
			if sh != sw {
				t.Fatalf("step outcome diverged: heap %v wheel %v", sh, sw)
			}
		case 4: // run until a deadline (exercises cursor overshoot + rewind)
			// Both schedulers share RunUntil, so the oracle cannot see it
			// overshoot: check the window against the deadline itself.
			deadline := heap.Now() + decodeDelta(next(), next(), next())
			from := len(hLog)
			heap.RunUntil(deadline)
			wheel.RunUntil(deadline)
			for _, f := range hLog[from:] {
				if f.at > deadline {
					t.Fatalf("RunUntil(%v) fired event %d at %v", deadline, f.id, f.at)
				}
			}
			if heap.Now() != deadline {
				t.Fatalf("clock %v after RunUntil(%v)", heap.Now(), deadline)
			}
		case 5: // burst of steps
			n := int(next()) % 16
			for j := 0; j < n; j++ {
				heap.Step()
				wheel.Step()
			}
		}
		checkClocks("op")
	}
	heap.Run()
	wheel.Run()
	checkClocks("drain")

	if len(hLog) != len(wLog) {
		t.Fatalf("fired %d events on heap, %d on wheel", len(hLog), len(wLog))
	}
	for k := range hLog {
		if hLog[k] != wLog[k] {
			t.Fatalf("fire %d diverged: heap %+v wheel %+v", k, hLog[k], wLog[k])
		}
	}
	if hs, ws := heap.Stats(), wheel.Stats(); hs != ws {
		t.Fatalf("stats diverged:\nheap  %+v\nwheel %+v", hs, ws)
	}
}

// TestWheelVsHeapProperty is the randomized differential property test:
// many independent scripts of mixed schedule/cancel/fire/run-until ops,
// every one required to produce the identical (at, seq) pop order on
// both queue implementations.
func TestWheelVsHeapProperty(t *testing.T) {
	scripts := 300
	if testing.Short() {
		scripts = 60
	}
	for seed := 0; seed < scripts; seed++ {
		rnd := rand.New(rand.NewSource(int64(seed)))
		script := make([]byte, 100+rnd.Intn(500))
		rnd.Read(script)
		diffQueues(t, script, false)
		diffQueues(t, script, true)
	}
}

// FuzzQueueOrder lets the fuzzer hunt for schedule/cancel interleavings
// where the wheel's pop order deviates from the heap oracle — including
// same-tick ties and cancels popped lazily.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}) // same-tick ties
	f.Add([]byte{1, 4, 255, 255, 3, 3, 3, 3})
	f.Add([]byte{0, 3, 200, 10, 4, 1, 0, 40, 0, 1, 0, 3, 2, 0, 3})
	f.Add([]byte{1, 2, 9, 9, 1, 4, 200, 200, 4, 2, 0, 1, 0, 0, 0, 1, 3})
	f.Add([]byte{0, 1, 0, 10, 0, 1, 0, 20, 2, 0, 4, 1, 0, 15}) // deadline between a cancelled and a live event
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		diffQueues(t, script, false)
		diffQueues(t, script, true)
	})
}

// TestWheelRewindAfterRunUntil pins the rewind path directly: RunUntil
// stops the clock short of the minimum pending event, which has already
// pulled the wheel's cursor forward; the next At lands between the clock
// and the cursor and must still fire in (at, seq) order.
func TestWheelRewindAfterRunUntil(t *testing.T) {
	s := New()
	var order []int
	s.At(1_000_000, func() { order = append(order, 2) })
	s.RunUntil(10) // cursor has advanced to 1_000_000; now == 10
	if s.Now() != 10 {
		t.Fatalf("Now = %v, want 10", s.Now())
	}
	s.At(11, func() { order = append(order, 0) })   // before the cursor: rewind
	s.At(5000, func() { order = append(order, 1) }) // bottom rung after rewind
	s.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("fire order = %v, want [0 1 2]", order)
	}
}

// TestWheelLanedSlotMatchesHeap files more than lanedPending events
// into one slot, so the wheel widens while they are filed, and a
// cascade spreads them over the lanes of one level-1 slot. It cancels
// some and rewinds the cursor while that slot is still filed: the
// cascade and rewind both walk every lane of a crowded slot. The fire
// order must equal the heap oracle's.
func TestWheelLanedSlotMatchesHeap(t *testing.T) {
	heap, wheel := newHeapScheduler(Config{}), New()
	var hLog, wLog []fire
	var handles [][2]Handle
	at := func(when Time) {
		id := len(handles)
		handles = append(handles, [2]Handle{
			heap.At(when, func() { hLog = append(hLog, fire{id, heap.Now()}) }),
			wheel.At(when, func() { wLog = append(wLog, fire{id, wheel.Now()}) }),
		})
	}
	cancelEvery := func(k int) {
		for i := 0; i < len(handles); i += k {
			if ch, cw := handles[i][0].Cancel(), handles[i][1].Cancel(); ch != cw {
				t.Fatalf("cancel %d diverged: heap %v wheel %v", i, ch, cw)
			}
		}
	}
	// From a zero cursor everything here is filed at level 2. Reaching
	// base cascades the first event to level 0 and the bulk to level-1
	// slot 5, with ties: lanedPending+3000 events in 512 distinct times.
	const base = Time(1) << 24
	rnd := rand.New(rand.NewSource(1))
	at(base + 3)
	for i := 0; i < lanedPending+3000; i++ {
		at(base + 5<<wheelBits + Time(rnd.Intn(512)))
	}
	cancelEvery(7)
	// The first event stops RunUntil with the cursor at base+3, past the
	// clock, and leaves the bulk filed in the laned level-1 slot.
	heap.RunUntil(10)
	wheel.RunUntil(10)
	w := wheel.q.(*wheelQueue)
	if w.laneBits != wheelLaneBits {
		t.Fatalf("wheel holding %d events has laneBits %d, want %d", w.n, w.laneBits, wheelLaneBits)
	}
	for k, head := range w.upper[0][5<<wheelLaneBits:][:wheelLanes] {
		n := 0
		for ev := head; ev != nil; ev = ev.next {
			n++
		}
		if n <= wheelLanes {
			t.Fatalf("lane %d of the crowded slot holds %d events, want more than %d", k, n, wheelLanes)
		}
	}
	// Each of these lands between the clock and the cursor: the first
	// rewinds across level 2, re-filing every lane of the crowded slot.
	for i := 0; i < 1000; i++ {
		at(11 + Time(rnd.Intn(1<<13)))
	}
	cancelEvery(5)
	heap.Run()
	wheel.Run()
	if len(hLog) != len(wLog) {
		t.Fatalf("fired %d events on heap, %d on wheel", len(hLog), len(wLog))
	}
	for k := range hLog {
		if hLog[k] != wLog[k] {
			t.Fatalf("fire %d diverged: heap %+v wheel %+v", k, hLog[k], wLog[k])
		}
	}
	if hs, ws := heap.Stats(), wheel.Stats(); hs != ws {
		t.Fatalf("stats diverged:\nheap  %+v\nwheel %+v", hs, ws)
	}
}

// TestWheelSameTickFIFO pins FIFO order among equal times across rungs:
// events scheduled for one instant from different distances (direct
// bottom-rung filing vs. cascaded overflow filing) still fire in
// scheduling order.
func TestWheelSameTickFIFO(t *testing.T) {
	s := New()
	const target = Time(1 << 20)
	var order []int
	// Scheduled far in advance: files in an overflow rung, cascades later.
	s.At(target, func() { order = append(order, 0) })
	// Burn the clock forward so the next schedule for the same instant
	// files directly in a bottom rung.
	s.At(target-3, func() {
		s.At(target, func() { order = append(order, 1) })
		s.At(target, func() { order = append(order, 2) })
	})
	s.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("fire order = %v, want [0 1 2] (seq FIFO at equal times)", order)
	}
}

// TestWheelScheduleFireZeroAlloc pins the wheel's steady-state hot path
// to zero heap allocations, mirroring the heap's pin: intrusive slot
// lists plus the pooled free list mean a warm schedule→fire cycle never
// touches the allocator.
func TestWheelScheduleFireZeroAlloc(t *testing.T) {
	s := New()
	count := 0
	fn := func() { count++ }
	cycle := func() {
		s.At(s.Now()+1, fn)
		s.Step()
	}
	for i := 0; i < 10; i++ { // warm the free list and ready buffer
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("steady-state wheel schedule+fire allocates %.1f times per op, want 0", avg)
	}
	if count == 0 {
		t.Fatal("events did not fire")
	}
}

// TestWheelDeepScheduleFireZeroAlloc pins the same property with a
// standing population across many rungs, so cascades are exercised too.
func TestWheelDeepScheduleFireZeroAlloc(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 0; i < 4096; i++ {
		s.At(s.Now()+Time(1000+i*37), fn)
	}
	cycle := func() {
		s.At(s.Now()+1, fn)
		s.Step()
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("deep-queue wheel schedule+fire allocates %.1f times per op, want 0", avg)
	}
	s.Run()
}

// TestQueueDepthHistogram pins the Config.Depth hook: every At observes
// the post-push queue depth.
func TestQueueDepthHistogram(t *testing.T) {
	for _, q := range []struct {
		name string
		new  func(Config) *Scheduler
	}{{"heap", newHeapScheduler}, {"wheel", NewWithConfig}} {
		h := DepthHistogram()
		s := q.new(Config{Depth: h})
		fn := func() {}
		for i := 0; i < 10; i++ {
			s.At(Time(100+i), fn)
		}
		s.Run()
		if h.Count != 10 {
			t.Fatalf("%s: depth histogram has %d observations, want 10", q.name, h.Count)
		}
		if h.Max != 10 {
			t.Fatalf("%s: depth histogram Max = %v, want 10", q.name, h.Max)
		}
	}
}

// benchScheduleFire measures the steady-state schedule→fire cycle on a
// scheduler with a standing population of `standing` pending events and
// randomized short-horizon timer delays — the MAC/phy timer distribution
// the wheel is built for. The delay sequence is a fixed xorshift stream,
// identical for both queues. newSched is NewWithConfig (the wheel) or
// newHeapScheduler (the oracle).
func benchScheduleFire(b *testing.B, newSched func(Config) *Scheduler, standing int) {
	s := newSched(Config{})
	fn := func() {}
	rnd := uint64(0x9E3779B97F4A7C15)
	horizon := func() Time {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return Time(rnd%(1<<22)) + 1
	}
	for i := 0; i < standing; i++ {
		s.At(s.Now()+horizon(), fn)
	}
	for i := 0; i < 1024; i++ { // warm free list and ready buffer
		s.At(s.Now()+horizon(), fn)
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+horizon(), fn)
		s.Step()
	}
}

// BenchmarkSchedulerWheelFire is the wheel counterpart of
// BenchmarkScheduleFire: warm steady state, no standing queue.
func BenchmarkSchedulerWheelFire(b *testing.B) { benchScheduleFire(b, NewWithConfig, 0) }

// BenchmarkSchedulerWheelFireDepth / BenchmarkSchedulerHeapFireDepth
// measure the mixed-horizon cycle with 1000 standing events (the
// paper-scale regime).
func BenchmarkSchedulerWheelFireDepth(b *testing.B) { benchScheduleFire(b, NewWithConfig, 1000) }
func BenchmarkSchedulerHeapFireDepth(b *testing.B)  { benchScheduleFire(b, newHeapScheduler, 1000) }

// skipInShort gates the metro-scale macro benchmarks out of -short bench
// smokes (CI runs every benchmark at -benchtime 1x -short): building a
// million-event backlog takes seconds even for a single iteration.
func skipInShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("metro-scale macro benchmark; run without -short")
	}
}

// BenchmarkSchedulerHeapFireMillion and BenchmarkSchedulerWheelFireMillion
// are the metro-scale acceptance pair: schedule+fire throughput with one
// million standing pending events, where the heap pays divergent
// ~20-level sift paths per operation and the wheel files in O(1).
func BenchmarkSchedulerHeapFireMillion(b *testing.B) {
	skipInShort(b)
	benchScheduleFire(b, newHeapScheduler, 1_000_000)
}

func BenchmarkSchedulerWheelFireMillion(b *testing.B) {
	skipInShort(b)
	benchScheduleFire(b, NewWithConfig, 1_000_000)
}

// BenchmarkSchedulerWheelMillion and BenchmarkSchedulerHeapMillion are
// the end-to-end metro measurement: schedule a one-million-event backlog
// spread across rungs, then drain it — total schedule+fire throughput at
// up to 1M pending events.
func BenchmarkSchedulerWheelMillion(b *testing.B) { benchMillion(b, NewWithConfig) }
func BenchmarkSchedulerHeapMillion(b *testing.B)  { benchMillion(b, newHeapScheduler) }

func benchMillion(b *testing.B, newSched func(Config) *Scheduler) {
	skipInShort(b)
	const backlog = 1_000_000
	fn := func() {}
	s := newSched(Config{})
	cycle := func() {
		base := s.Now()
		for j := 0; j < backlog; j++ {
			s.At(base+Time(j%97)*8191+Time(j), fn)
		}
		s.Run()
	}
	cycle() // warm the free list so iterations measure queue work, not allocation
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.ReportMetric(float64(backlog)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
