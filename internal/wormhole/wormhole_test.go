package wormhole

import (
	"testing"

	"beaconsec/internal/geo"
	"beaconsec/internal/phy"
	"beaconsec/internal/rng"
	"beaconsec/internal/sim"
)

func setup() (*sim.Scheduler, *phy.Medium) {
	sched := sim.New()
	m := phy.NewMedium(sched, rng.New(3), phy.Config{Range: 150})
	return sched, m
}

func TestTunnelForwardsBothDirections(t *testing.T) {
	sched, m := setup()
	a := geo.Point{X: 100, Y: 100}
	b := geo.Point{X: 800, Y: 700}
	tun := Install(m, a, b, 2)

	nearA := m.NewRadio(geo.Point{X: 120, Y: 100})
	nearB := m.NewRadio(geo.Point{X: 780, Y: 700})
	var atA, atB []phy.Reception
	nearA.SetHandler(func(r phy.Reception) { atA = append(atA, r) })
	nearB.SetHandler(func(r phy.Reception) { atB = append(atB, r) })

	// Transmit near A; must appear near B as a replayed frame.
	sched.At(0, func() { m.Transmit(nearA, phy.Frame{Data: make([]byte, 16)}) })
	// And the reverse direction, later.
	sched.At(sim.Seconds(1), func() { m.Transmit(nearB, phy.Frame{Data: make([]byte, 16)}) })
	sched.Run()
	if len(atB) != 1 {
		t.Fatalf("near-B radio received %d frames, want 1 (tunneled)", len(atB))
	}
	if !atB[0].Frame.Replayed {
		t.Error("tunneled frame not marked Replayed")
	}
	if len(atA) != 1 {
		t.Fatalf("near-A radio received %d frames, want 1 (reverse tunneled)", len(atA))
	}
	if tun.Forwarded != 2 {
		t.Errorf("Forwarded = %d, want 2", tun.Forwarded)
	}
}

func TestTunnelMeasuredDistanceIsToExit(t *testing.T) {
	sched, m := setup()
	a := geo.Point{X: 100, Y: 100}
	b := geo.Point{X: 800, Y: 700}
	Install(m, a, b, 2)
	nearA := m.NewRadio(geo.Point{X: 100, Y: 100})
	nearB := m.NewRadio(geo.Point{X: 830, Y: 740})
	var got []float64
	nearB.SetHandler(func(r phy.Reception) { got = append(got, r.MeasuredDist) })
	sched.At(0, func() { m.Transmit(nearA, phy.Frame{Data: make([]byte, 16)}) })
	sched.Run()
	if len(got) != 1 {
		t.Fatalf("received %d frames", len(got))
	}
	want := geo.Point{X: 830, Y: 740}.Dist(b) // 50
	if got[0] != want {
		t.Errorf("MeasuredDist = %v, want %v (distance to tunnel exit)", got[0], want)
	}
}

func TestTunnelDoesNotLoop(t *testing.T) {
	// Two tunnels sharing an endpoint region must not amplify traffic
	// forever.
	sched, m := setup()
	Install(m, geo.Point{X: 0, Y: 0}, geo.Point{X: 500, Y: 0}, 2)
	Install(m, geo.Point{X: 500, Y: 0}, geo.Point{X: 900, Y: 0}, 2)
	tx := m.NewRadio(geo.Point{X: 10, Y: 0})
	sched.At(0, func() { m.Transmit(tx, phy.Frame{Data: make([]byte, 16)}) })
	sched.Run()
	// One original + at most one injection per tunnel; termination is
	// the real assertion.
	if got := m.Stats().Transmissions; got > 3 {
		t.Errorf("transmissions = %d, tunnel loop suspected", got)
	}
}

func TestTunnelIgnoresFarTraffic(t *testing.T) {
	sched, m := setup()
	tun := Install(m, geo.Point{X: 0, Y: 0}, geo.Point{X: 900, Y: 900}, 2)
	tx := m.NewRadio(geo.Point{X: 450, Y: 450}) // far from both endpoints
	sched.At(0, func() { m.Transmit(tx, phy.Frame{Data: make([]byte, 16)}) })
	sched.Run()
	if tun.Forwarded != 0 {
		t.Errorf("tunnel forwarded %d far frames", tun.Forwarded)
	}
}

func TestTunnelLatency(t *testing.T) {
	sched, m := setup()
	const latency = sim.Time(12345)
	Install(m, geo.Point{X: 0, Y: 0}, geo.Point{X: 800, Y: 0}, latency)
	tx := m.NewRadio(geo.Point{X: 10, Y: 0})
	rx := m.NewRadio(geo.Point{X: 790, Y: 0})
	var end sim.Time
	rx.SetHandler(func(r phy.Reception) { end = r.End })
	sched.At(0, func() { m.Transmit(tx, phy.Frame{Data: make([]byte, 16)}) })
	sched.Run()
	air := phy.FrameAirTime(16)
	// Bit-level relay: injection starts at latency, ends latency+air.
	want := latency + air
	if end < want || end > want+10 {
		t.Errorf("replayed frame ended at %v, want ≈ %v", end, want)
	}
}

func TestProbabilisticDetector(t *testing.T) {
	src := rng.New(9)
	d := NewProbabilistic(0.9, *src)

	if !d.Detect(false, true) {
		t.Error("marked signal not detected (attacker must always convince)")
	}
	if d.Detect(false, false) {
		t.Error("clean signal flagged (detector must have zero false positives)")
	}
	hits := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		if d.Detect(true, false) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if rate < 0.88 || rate > 0.92 {
		t.Errorf("replay detection rate = %v, want ≈ 0.9", rate)
	}
}

func TestProbabilisticRateBounds(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rate %v did not panic", bad)
				}
			}()
			NewProbabilistic(bad, rng.Make(1))
		}()
	}
}

func tunnelRTT(t *testing.T, latency sim.Time) float64 {
	t.Helper()
	sched, m := setup()
	Install(m, geo.Point{X: 0, Y: 0}, geo.Point{X: 800, Y: 0}, latency)
	u := m.NewRadio(geo.Point{X: 20, Y: 0})  // requester near A
	v := m.NewRadio(geo.Point{X: 820, Y: 0}) // responder near B

	var t1, t2, t3, t4 sim.Time
	rtt := -1.0
	v.SetHandler(func(r phy.Reception) {
		t2 = r.FirstByteSPDR
		sched.After(5000, func() {
			info := m.Transmit(v, phy.Frame{Data: make([]byte, 16)})
			t3 = info.FirstByteSPDR
		})
	})
	u.SetHandler(func(r phy.Reception) {
		t4 = r.FirstByteSPDR
		rtt = float64(t4-t1) - float64(t3-t2)
	})
	sched.At(sim.Millis(5), func() {
		info := m.Transmit(u, phy.Frame{Data: make([]byte, 16)})
		t1 = info.FirstByteSPDR
	})
	sched.Run()
	if rtt < 0 {
		t.Fatal("exchange did not complete through tunnel")
	}
	return rtt
}

func TestAnalogTunnelEvadesRTTFilter(t *testing.T) {
	// The paper's false-positive path requires the wormhole replay's
	// added delay to stay under ~4.5 bit-times: a near-zero-latency
	// analog relay produces an RTT inside the benign spread.
	rtt := tunnelRTT(t, 2)
	if max := float64(4*phy.JitterMax + 2*2 + 4); rtt > max {
		t.Errorf("analog tunnel RTT = %v, exceeds benign bound %v", rtt, max)
	}
	if min := float64(4 * phy.JitterMin); rtt < min {
		t.Errorf("analog tunnel RTT = %v below %v", rtt, min)
	}
}

func TestSlowTunnelInflatesRTT(t *testing.T) {
	// A store-and-forward wormhole (latency ≈ one frame time) inflates
	// the RTT by 2×latency — which is what the RTT filter catches.
	latency := phy.FrameAirTime(16)
	rtt := tunnelRTT(t, latency)
	wantMin := 4*phy.JitterMin + 2*float64(latency) - 1
	if rtt < wantMin {
		t.Errorf("slow tunnel RTT = %v, want >= %v", rtt, wantMin)
	}
}

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// TestTunnelForwardZeroAlloc pins that relaying a captured frame costs
// nothing once the medium is warm: the tunnel copies the bytes into a
// pooled injection record, which fires itself, and every reception of
// the original and of the replay comes from the medium's pool.
func TestTunnelForwardZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs allocation behavior; pin not meaningful")
	}
	sched, m := setup()
	tun := Install(m, geo.Point{X: 100, Y: 100}, geo.Point{X: 800, Y: 700}, 2)
	tx := m.NewRadio(geo.Point{X: 120, Y: 100})
	rx := m.NewRadio(geo.Point{X: 780, Y: 700})
	rx.SetHandler(func(phy.Reception) {})
	buf := make([]byte, 38)
	cycle := func() {
		m.Transmit(tx, phy.Frame{Data: buf})
		sched.Run()
	}
	for i := 0; i < 10; i++ { // warm the pools
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("a tunnelled frame allocates %.1f times, want 0", avg)
	}
	if tun.Forwarded != 111 {
		t.Errorf("Forwarded = %d, want 111", tun.Forwarded)
	}
}
