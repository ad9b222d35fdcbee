package phy

import (
	"math"
	"slices"
	"testing"

	"beaconsec/internal/geo"
	"beaconsec/internal/rng"
	"beaconsec/internal/sim"
)

func newTestMedium(cfg Config) (*sim.Scheduler, *Medium) {
	sched := sim.New()
	m := NewMedium(sched, rng.New(1), cfg)
	return sched, m
}

func frame(n int) Frame { return Frame{Data: make([]byte, n)} }

func TestTimingConstants(t *testing.T) {
	if CyclesPerBit != 384 {
		t.Errorf("CyclesPerBit = %d, paper says 384", CyclesPerBit)
	}
	if CyclesPerByte != 8*384 {
		t.Errorf("CyclesPerByte = %d", CyclesPerByte)
	}
	if FrameAirTime(20) != 20*CyclesPerByte {
		t.Errorf("FrameAirTime(20) = %v", FrameAirTime(20))
	}
}

func TestDeliveryInRangeOnly(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 150})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	near := m.NewRadio(geo.Point{X: 100, Y: 0})
	far := m.NewRadio(geo.Point{X: 151, Y: 0})
	var nearGot, farGot int
	near.SetHandler(func(Reception) { nearGot++ })
	far.SetHandler(func(Reception) { farGot++ })
	m.Transmit(tx, frame(16))
	sched.Run()
	if nearGot != 1 {
		t.Errorf("near radio got %d frames, want 1", nearGot)
	}
	if farGot != 0 {
		t.Errorf("out-of-range radio got %d frames, want 0", farGot)
	}
	if got := m.Stats().Deliveries; got != 1 {
		t.Errorf("Deliveries = %d", got)
	}
}

func TestSenderDoesNotHearItself(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 150})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	got := 0
	tx.SetHandler(func(Reception) { got++ })
	m.Transmit(tx, frame(16))
	sched.Run()
	if got != 0 {
		t.Errorf("sender received its own frame %d times", got)
	}
}

func TestTransmitTiming(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 150})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	rx := m.NewRadio(geo.Point{X: 10, Y: 0})
	var rec Reception
	rx.SetHandler(func(r Reception) { rec = r })
	sched.At(1000, func() {
		info := m.Transmit(tx, frame(20))
		if info.AirStart != 1000 {
			t.Errorf("AirStart = %v", info.AirStart)
		}
		if info.AirEnd != 1000+FrameAirTime(20) {
			t.Errorf("AirEnd = %v", info.AirEnd)
		}
		// t1 is before the first byte finishes on air, within the
		// jitter bounds.
		lo := sim.Time(1000 + CyclesPerByte - JitterMax)
		hi := sim.Time(1000 + CyclesPerByte - JitterMin)
		if info.FirstByteSPDR < lo || info.FirstByteSPDR > hi {
			t.Errorf("FirstByteSPDR = %v, want in [%v, %v]", info.FirstByteSPDR, lo, hi)
		}
	})
	sched.Run()
	if rec.End < 1000+FrameAirTime(20) {
		t.Errorf("reception End = %v before air end", rec.End)
	}
	// t2 is after the first byte arrives.
	if rec.FirstByteSPDR <= 1000+CyclesPerByte {
		t.Errorf("receiver FirstByteSPDR = %v, want after first byte air time", rec.FirstByteSPDR)
	}
}

func TestRTTStructure(t *testing.T) {
	// The core PHY property the paper's Figure 4 rests on: a full
	// request/reply exchange's RTT = (t4-t1)-(t3-t2) lands in
	// [4*JitterMin, 4*JitterMax] (+ tiny propagation), regardless of
	// MAC/processing delay between t2 and t3.
	const trials = 500
	sched, m := newTestMedium(Config{Range: 150})
	a := m.NewRadio(geo.Point{X: 0, Y: 0})
	b := m.NewRadio(geo.Point{X: 100, Y: 0})

	var rtts []float64
	var t1, t2, t3, t4 sim.Time
	bHandler := func(rec Reception) {
		t2 = rec.FirstByteSPDR
		// Arbitrary processing delay before replying: must cancel. Kept
		// below the inter-exchange gap so consecutive exchanges never
		// overlap on air.
		procDelay := sim.Time(1000 + (len(rtts)*777)%100000)
		sched.After(procDelay, func() {
			info := m.Transmit(b, frame(16))
			t3 = info.FirstByteSPDR
		})
	}
	aHandler := func(rec Reception) {
		t4 = rec.FirstByteSPDR
		rtts = append(rtts, float64(t4-t1)-float64(t3-t2))
	}
	b.SetHandler(bHandler)
	a.SetHandler(aHandler)

	var kick func()
	kicks := 0
	kick = func() {
		if len(rtts) >= trials || kicks > 2*trials {
			return
		}
		kicks++
		info := m.Transmit(a, frame(16))
		t1 = info.FirstByteSPDR
		// Next exchange well after this one completes.
		sched.After(sim.Millis(50), kick)
	}
	sched.At(0, kick)
	sched.Run()
	if len(rtts) != trials {
		t.Fatalf("completed %d exchanges, want %d", len(rtts), trials)
	}
	lo, hi := float64(4*JitterMin-1), float64(4*JitterMax+3) // +2 propagation cycles margin
	for i, r := range rtts {
		if r < lo || r > hi {
			t.Fatalf("exchange %d: RTT %v outside [%v, %v]", i, r, lo, hi)
		}
	}
	// Spread should be close to the paper's 4.5 bit-times.
	minR, maxR := rtts[0], rtts[0]
	for _, r := range rtts {
		minR = math.Min(minR, r)
		maxR = math.Max(maxR, r)
	}
	if spread := maxR - minR; spread > 4.5*CyclesPerBit+8 {
		t.Errorf("RTT spread %v exceeds 4.5 bit-times (%v)", spread, 4.5*CyclesPerBit)
	}
}

func TestCollisionCorruptsBoth(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 1000})
	tx1 := m.NewRadio(geo.Point{X: 0, Y: 0})
	tx2 := m.NewRadio(geo.Point{X: 200, Y: 0})
	rx := m.NewRadio(geo.Point{X: 100, Y: 0})
	got := 0
	rx.SetHandler(func(Reception) { got++ })
	// Overlapping transmissions.
	sched.At(0, func() { m.Transmit(tx1, frame(20)) })
	sched.At(100, func() { m.Transmit(tx2, frame(20)) })
	sched.Run()
	if got != 0 {
		t.Errorf("receiver decoded %d frames during collision, want 0", got)
	}
	// rx loses both frames to the collision; each sender loses the
	// other's frame to its own transmission.
	want := Stats{Transmissions: 2, Collisions: 2, HalfDuplex: 2, BytesOnAir: 40}
	if s := m.Stats(); s != want {
		t.Errorf("Stats = %+v, want %+v", s, want)
	}
}

func TestNonOverlappingFramesBothDelivered(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 1000})
	tx1 := m.NewRadio(geo.Point{X: 0, Y: 0})
	tx2 := m.NewRadio(geo.Point{X: 200, Y: 0})
	rx := m.NewRadio(geo.Point{X: 100, Y: 0})
	got := 0
	rx.SetHandler(func(Reception) { got++ })
	sched.At(0, func() { m.Transmit(tx1, frame(20)) })
	sched.At(FrameAirTime(20)+1000, func() { m.Transmit(tx2, frame(20)) })
	sched.Run()
	if got != 2 {
		t.Errorf("delivered %d, want 2", got)
	}
}

func TestHalfDuplexReceiverTransmitting(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 1000})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	busy := m.NewRadio(geo.Point{X: 100, Y: 0})
	got := 0
	busy.SetHandler(func(Reception) { got++ })
	// busy starts a long transmission, then tx transmits into it.
	sched.At(0, func() { m.Transmit(busy, frame(30)) })
	sched.At(100, func() { m.Transmit(tx, frame(16)) })
	sched.Run()
	if got != 0 {
		t.Errorf("transmitting radio received %d frames, want 0", got)
	}
	// Each radio loses the other's frame to its own transmission, once.
	if s := m.Stats(); s.HalfDuplex != 2 || s.Collisions != 0 || s.Deliveries != 0 {
		t.Errorf("Stats = %+v, want 2 half-duplex losses and nothing else", s)
	}
}

// TestPassageCorruptsReception pins a passage's air occupancy: a frame
// addressed elsewhere, overlapping a reception at a listening radio,
// corrupts it whichever of the two arrives first, and counts as neither
// a delivery nor a loss itself. Frames that do not overlap pass.
func TestPassageCorruptsReception(t *testing.T) {
	air := FrameAirTime(20)
	for _, c := range []struct {
		name                string
		forRx, forOther     sim.Time // launch times
		delivered, collided uint64
	}{
		{"reception first", 0, 100, 0, 1},
		{"passage first", 100, 0, 0, 1},
		{"apart", 0, air + 10, 1, 0},
		{"passage ends as reception starts", air, 0, 1, 0},
	} {
		sched, m := newTestMedium(Config{Range: 1000})
		a := m.NewRadio(geo.Point{X: 0, Y: 0})
		b := m.NewRadio(geo.Point{X: 0, Y: 0})
		rx := m.NewRadio(geo.Point{X: 100, Y: 0})
		got := 0
		rx.SetHandler(func(Reception) { got++ })
		rx.Listen(1)
		// a and b are colocated, so each loses the other's frame to
		// half-duplex at most: every collision counted below is rx's.
		sched.At(c.forRx, func() { m.Transmit(a, Frame{Data: make([]byte, 20), Dst: 1}) })
		sched.At(c.forOther, func() { m.Transmit(b, Frame{Data: make([]byte, 20), Dst: 2}) })
		sched.Run()
		s := m.Stats()
		if uint64(got) != c.delivered || s.Deliveries != c.delivered || s.Collisions != c.collided {
			t.Errorf("%s: handler got %d, Stats %+v; want %d delivered, %d collided",
				c.name, got, s, c.delivered, c.collided)
		}
	}
}

// TestDrawsKeyedByLaunchAndReceiver pins what the draws are keyed by:
// the receivers of one launch draw distinct measurements, and so do two
// launches from one radio to one receiver.
func TestDrawsKeyedByLaunchAndReceiver(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 150, RangeError: 10})
	tx := m.NewRadio(geo.Point{})
	var got [2][]Reception
	for i := 0; i < 8; i++ {
		// Colocated receivers, at one distance and delay.
		m.NewRadio(geo.Point{X: 100}).SetHandler(func(r Reception) {
			launch := 0
			if r.End > FrameAirTime(16)+2 {
				launch = 1
			}
			got[launch] = append(got[launch], r)
		})
	}
	sched.At(0, func() { m.Transmit(tx, frame(16)) })
	sched.At(sim.Millis(10), func() { m.Transmit(tx, frame(16)) })
	sched.Run()
	if len(got[0]) != 8 || len(got[1]) != 8 {
		t.Fatalf("%d and %d receptions, want 8 per launch", len(got[0]), len(got[1]))
	}
	seen := make(map[float64]bool)
	for _, launch := range got {
		for _, r := range launch {
			seen[r.MeasuredDist] = true
		}
	}
	if len(seen) != 16 {
		t.Errorf("16 receptions measured %d distinct distances, want 16", len(seen))
	}
}

func TestInjectDeliversFromOrigin(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 150})
	rx := m.NewRadio(geo.Point{X: 0, Y: 0})
	var rec Reception
	n := 0
	rx.SetHandler(func(r Reception) { rec = r; n++ })
	m.Inject(m.NewPort(geo.Point{X: 30, Y: 40}), Frame{Data: make([]byte, 16), Replayed: true})
	sched.Run()
	if n != 1 {
		t.Fatalf("injected frame delivered %d times", n)
	}
	if rec.MeasuredDist != 50 {
		t.Errorf("MeasuredDist = %v, want 50 (distance to injection point)", rec.MeasuredDist)
	}
	if !rec.Frame.Replayed {
		t.Error("Replayed flag lost in delivery")
	}
}

func TestRangeBiasShiftsMeasurement(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 150})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	rx := m.NewRadio(geo.Point{X: 50, Y: 0})
	var got float64
	rx.SetHandler(func(r Reception) { got = r.MeasuredDist })
	m.Transmit(tx, Frame{Data: make([]byte, 16), RangeBias: 40})
	sched.Run()
	if got != 90 {
		t.Errorf("MeasuredDist = %v, want 90 with +40 bias", got)
	}
}

// TestRangeErrorBounds checks the ranging model on a medium: each
// measurement lies within ±RangeError of the true distance, the errors
// reach across that band, and a measurement below zero is clamped to
// zero.
func TestRangeErrorBounds(t *testing.T) {
	const trials = 2000
	for _, dist := range []float64{100, 1} {
		sched, m := newTestMedium(Config{Range: 150, RangeError: 10})
		tx := m.NewRadio(geo.Point{})
		rx := m.NewRadio(geo.Point{X: dist})
		var got []float64
		rx.SetHandler(func(r Reception) { got = append(got, r.MeasuredDist) })
		for i := 0; i < trials; i++ {
			sched.At(sim.Time(i)*sim.Millis(10), func() { m.Transmit(tx, frame(16)) })
		}
		sched.Run()
		if len(got) != trials {
			t.Fatalf("dist %v: %d receptions, want %d", dist, len(got), trials)
		}
		lo, hi := max(dist-10, 0), dist+10
		minD, maxD := slices.Min(got), slices.Max(got)
		if minD < lo || maxD > hi {
			t.Fatalf("dist %v: measurements span [%v, %v], want inside [%v, %v]", dist, minD, maxD, lo, hi)
		}
		if minD > lo+1 || maxD < hi-1 {
			t.Errorf("dist %v: measurements span [%v, %v], want close to [%v, %v]", dist, minD, maxD, lo, hi)
		}
		if dist < 10 && minD != 0 {
			t.Errorf("dist %v: no measurement clamped at 0 (min %v)", dist, minD)
		}
	}
}

func TestBusyCarrierSense(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 1000})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	other := m.NewRadio(geo.Point{X: 100, Y: 0})
	if m.Busy(other) {
		t.Error("idle channel reported busy")
	}
	sched.At(0, func() {
		m.Transmit(tx, frame(30))
	})
	sched.At(100, func() {
		if !m.Busy(other) {
			t.Error("receiver in range of active transmission reports idle")
		}
		if !m.Busy(tx) {
			t.Error("transmitting radio reports idle")
		}
	})
	sched.At(FrameAirTime(30)+1000, func() {
		if m.Busy(other) {
			t.Error("channel still busy after air end")
		}
	})
	sched.Run()
}

// TestBusySensesPassages pins carrier sense at a listening radio: a
// frame addressed elsewhere asserts carrier from its launch until it
// ends at the radio, as one it receives does.
func TestBusySensesPassages(t *testing.T) {
	for _, dst := range []uint32{1, 2} {
		sched, m := newTestMedium(Config{Range: 150})
		tx := m.NewRadio(geo.Point{})
		rx := m.NewRadio(geo.Point{X: 150}) // one cycle away
		rx.Listen(1)
		var end sim.Time
		sched.At(0, func() { end = m.Transmit(tx, Frame{Data: make([]byte, 16), Dst: dst}).AirEnd + 1 })
		for _, at := range []sim.Time{0, 1, FrameAirTime(16), FrameAirTime(16) + 1} {
			sched.At(at, func() {
				if got, want := m.Busy(rx), at < end; got != want {
					t.Errorf("dst %d: Busy at %d = %v, want %v (frame ends at %d)", dst, at, got, want, end)
				}
			})
		}
		sched.Run()
	}
}

func TestFinalizeRewritesData(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 150})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	rx := m.NewRadio(geo.Point{X: 10, Y: 0})
	var got []byte
	rx.SetHandler(func(r Reception) { got = r.Frame.Data })
	var sawT3 sim.Time
	sched.At(10000, func() {
		m.Transmit(tx, Frame{
			Data: make([]byte, 16),
			Finalize: func(t3 sim.Time) []byte {
				sawT3 = t3
				out := make([]byte, 16)
				out[0] = 0xEE
				return out
			},
		})
	})
	sched.Run()
	if sawT3 == 0 {
		t.Error("Finalize not called with t3")
	}
	if len(got) != 16 || got[0] != 0xEE {
		t.Errorf("receiver got %v, want finalized data", got)
	}
}

func TestFinalizeSizeChangePanics(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 150})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	sched.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("size-changing Finalize did not panic")
			}
		}()
		m.Transmit(tx, Frame{
			Data:     make([]byte, 16),
			Finalize: func(sim.Time) []byte { return make([]byte, 17) },
		})
	})
	sched.Run()
}

func TestEmptyFramePanics(t *testing.T) {
	_, m := newTestMedium(Config{Range: 150})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	defer func() {
		if recover() == nil {
			t.Error("empty frame did not panic")
		}
	}()
	m.Transmit(tx, Frame{})
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Range: 0},
		{Range: math.NaN()},
		{Range: math.Inf(1)},
		{Range: 1e12},
		{Range: 410_000}, // a 3,072-cycle delay: a byte time
		{Range: 409_755},
		{Range: 150, RangeError: -1},
		{Range: 150, RangeError: math.NaN()},
		{Range: 150, RangeError: math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v did not panic", cfg)
				}
			}()
			NewMedium(sim.New(), rng.New(1), cfg)
		}()
	}
	// A delay that rounds to 3,071 cycles, just under a byte time, is
	// accepted.
	NewMedium(sim.New(), rng.New(1), Config{Range: 409_750})
}

func TestTapSeesAllTransmissions(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 150})
	tx := m.NewRadio(geo.Point{X: 5, Y: 6})
	var origins []geo.Point
	m.AddTap(func(origin geo.Point, f Frame, info TxInfo) {
		origins = append(origins, origin)
	})
	m.Transmit(tx, frame(16))
	m.Inject(m.NewPort(geo.Point{X: 70, Y: 80}), frame(16))
	sched.Run()
	if len(origins) != 2 {
		t.Fatalf("tap saw %d transmissions, want 2", len(origins))
	}
	if origins[0] != (geo.Point{X: 5, Y: 6}) || origins[1] != (geo.Point{X: 70, Y: 80}) {
		t.Errorf("tap origins = %v", origins)
	}
}
