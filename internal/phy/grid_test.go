package phy

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"beaconsec/internal/crypto"
	"beaconsec/internal/geo"
	"beaconsec/internal/ident"
	"beaconsec/internal/packet"
	"beaconsec/internal/rng"
	"beaconsec/internal/sim"
)

// raceEnabled is set by race_test.go under -race builds.
var raceEnabled bool

// bruteForce is the test oracle for receiver resolution: the O(N) scan
// over every registered radio that the spatial grid and then the
// neighbour tables replaced. It visits radios in registration order,
// skips the sender, and keeps each radio whose hypot distance from
// origin is not above Range, with that distance and its delay.
func bruteForce(m *Medium, origin geo.Point, sender *Radio) []neighbour {
	var out []neighbour
	for i, rx := range m.radios {
		if rx == sender {
			continue
		}
		if d := origin.Dist(rx.pos); !(d > m.cfg.Range) {
			out = append(out, neighbour{dist: d, rx: int32(i), delay: uint32(propagation(d))})
		}
	}
	return out
}

// receptionLog records everything a handler observes, for cross-medium
// comparison.
type receptionLog struct {
	radio     int
	data0     byte
	measured  float64
	firstByte sim.Time
	end       sim.Time
}

// loggedMedium is a medium whose radios all log their receptions. Its
// rng streams are seeded identically across instances, so two of them
// driven by the same actions must behave byte-identically.
type loggedMedium struct {
	sched  *sim.Scheduler
	m      *Medium
	radios []*Radio
	log    []receptionLog
	// oracle resolves every launch's receivers with bruteForce instead
	// of the neighbour tables and the grid.
	oracle bool
}

func newLoggedMedium(oracle bool) *loggedMedium {
	sched := sim.New()
	return &loggedMedium{
		sched: sched,
		m: NewMedium(sched, rng.New(42), Config{
			Range:   150,
			Ranging: BoundedUniform{MaxError: 10},
		}),
		oracle: oracle,
	}
}

func (l *loggedMedium) add(p geo.Point) {
	i := len(l.radios)
	r := l.m.NewRadio(p)
	r.SetHandler(func(rec Reception) {
		l.log = append(l.log, receptionLog{
			radio:     i,
			data0:     rec.Frame.Data[0],
			measured:  rec.MeasuredDist,
			firstByte: rec.FirstByteSPDR,
			end:       rec.End,
		})
	})
	l.radios = append(l.radios, r)
}

func (l *loggedMedium) transmit(r *Radio, f Frame) {
	if l.oracle {
		r.neighbours = bruteForce(l.m, r.pos, r)
	}
	l.m.Transmit(r, f)
}

func (l *loggedMedium) inject(origin geo.Point, f Frame) {
	if !l.oracle {
		l.m.Inject(origin, f)
		return
	}
	l.m.stats.Injections++
	l.m.launch(origin, f, bruteForce(l.m, origin, nil))
}

// TestGridDeliveryMatchesBruteForce pins receiver resolution to the
// O(N) scan: the neighbour tables (Transmit) and the grid (Inject)
// resolve exactly the receivers the scan does, in the same order,
// consuming the medium's rng stream identically — so every downstream
// byte (measurements, timestamps, event order) is unchanged. Radios
// also register between transmissions, as the node tests' probe and
// forger radios do.
func TestGridDeliveryMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		n := 20 + rnd.Intn(180)
		positions := make([]geo.Point, n)
		for i := range positions {
			// Include off-field positions (wormhole endpoints, replay
			// attackers can sit anywhere).
			positions[i] = geo.Point{
				X: -100 + 1200*rnd.Float64(),
				Y: -100 + 1200*rnd.Float64(),
			}
		}
		// Colocated radios, pairs exactly Range apart (on an axis, on a
		// diagonal, across a grid cell edge) and a radio on a cell corner.
		copy(positions, []geo.Point{
			{X: 500, Y: 500},
			{X: 500, Y: 500},
			{X: 650, Y: 500},
			{X: 590, Y: 620},
			{X: 300, Y: 300},
			{X: 300, Y: 150},
		})

		type action struct {
			kind   int // 0: Transmit, 1: Inject from origin, 2: NewRadio at origin
			radio  int // sender, modulo the radios registered when it fires
			origin geo.Point
			at     sim.Time
			size   int
		}
		actions := make([]action, 60)
		for i := range actions {
			a := action{at: sim.Time(rnd.Intn(5_000_000)), size: 8 + rnd.Intn(24)}
			switch k := rnd.Intn(8); {
			case k < 5:
				a.radio = rnd.Intn(1 << 16)
			case k < 7:
				a.kind = 1
			default:
				a.kind = 2
			}
			a.origin = geo.Point{X: -100 + 1200*rnd.Float64(), Y: -100 + 1200*rnd.Float64()}
			if a.kind == 2 && rnd.Intn(3) == 0 {
				// Late radios colocated with, or exactly Range from, an
				// initial one.
				p := positions[rnd.Intn(n)]
				a.origin = []geo.Point{p, {X: p.X + 150, Y: p.Y}, {X: p.X, Y: p.Y - 150}}[rnd.Intn(3)]
			}
			actions[i] = a
		}

		run := func(oracle bool) ([]receptionLog, Stats) {
			l := newLoggedMedium(oracle)
			for _, p := range positions {
				l.add(p)
			}
			for _, a := range actions {
				a := a
				l.sched.At(a.at, func() {
					f := Frame{Data: make([]byte, a.size)}
					f.Data[0] = byte(a.size)
					switch a.kind {
					case 0:
						l.transmit(l.radios[a.radio%len(l.radios)], f)
					case 1:
						if !oracle && !slices.Equal(l.m.resolve(a.origin), bruteForce(l.m, a.origin, nil)) {
							t.Errorf("trial %d: grid receivers of %v differ from the scan's", trial, a.origin)
						}
						l.inject(a.origin, f)
					case 2:
						l.add(a.origin)
						if oracle {
							return
						}
						for i, r := range l.radios {
							if want := bruteForce(l.m, r.pos, r); !slices.Equal(r.neighbours, want) {
								t.Errorf("trial %d: radio %d's table after registering %v:\n got %v\nwant %v",
									trial, i, a.origin, r.neighbours, want)
							}
						}
					}
				})
			}
			if err := l.sched.Run(); err != nil {
				t.Fatal(err)
			}
			return l.log, l.m.Stats()
		}

		gotLog, gotStats := run(false)
		wantLog, wantStats := run(true)
		if t.Failed() {
			t.FailNow()
		}
		if gotStats != wantStats {
			t.Fatalf("trial %d: stats diverge: %+v vs oracle %+v", trial, gotStats, wantStats)
		}
		if len(gotLog) != len(wantLog) {
			t.Fatalf("trial %d: %d receptions, oracle %d", trial, len(gotLog), len(wantLog))
		}
		for i := range gotLog {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("trial %d: reception %d diverges: %+v vs oracle %+v",
					trial, i, gotLog[i], wantLog[i])
			}
		}
	}
}

// TestTransmitPrunesActives pins the satellite fix: a run that never
// carrier-senses (no Busy calls) must not accumulate active intervals
// forever.
func TestTransmitPrunesActives(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 150})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	for i := 0; i < 200; i++ {
		m.Transmit(tx, frame(16))
		if err := sched.Run(); err != nil {
			t.Fatal(err)
		}
		// Move time well past the frame so the interval expires.
		sched.After(FrameAirTime(16)*4, func() {})
		sched.Run()
	}
	if len(m.actives) > 2 {
		t.Fatalf("actives grew to %d entries despite no carrier sensing", len(m.actives))
	}
}

// TestTransmitSteadyStateZeroAlloc pins the pooling work: once the
// event free list, delivery pool, and scratch buffers are warm, a
// transmit→deliver cycle performs zero heap allocations (the frame
// buffer itself is owned and reused by the caller here, as the
// benchmarks and batch paths do).
func TestTransmitSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs allocation behavior; pin not meaningful")
	}
	sched, m := newTestMedium(Config{Range: 150})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	for i := 0; i < 40; i++ {
		m.NewRadio(geo.Point{X: float64(i), Y: 10})
	}
	buf := make([]byte, 16)
	cycle := func() {
		m.Transmit(tx, Frame{Data: buf})
		sched.Run()
	}
	for i := 0; i < 50; i++ { // warm pools
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("steady-state transmit+deliver allocates %.1f times per op, want 0", avg)
	}
}

// TestSignEncodeDeliverVerifyZeroAlloc pins the full hot path the issue
// targets: append-style encode (with HMAC sign) into a reused buffer,
// radio delivery through the pooled medium, and authenticated decode at
// the receiver — zero heap allocations per frame in steady state.
func TestSignEncodeDeliverVerifyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool puts; allocation pin not meaningful")
	}
	sched, m := newTestMedium(Config{Range: 150})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	rx := m.NewRadio(geo.Point{X: 50, Y: 0})
	key := crypto.KDF(crypto.Key{}, []byte("grid-test"))
	delivered := 0
	rx.SetHandler(func(rec Reception) {
		pkt, err := packet.Decode(rec.Frame.Data, key)
		if err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		if pkt.Header.Type != packet.TypeBeaconRequest {
			t.Errorf("type = %v", pkt.Header.Type)
		}
		delivered++
	})
	buf := make([]byte, 0, packet.MaxSize)
	seq := uint16(0)
	cycle := func() {
		seq++
		var err error
		buf, err = packet.EncodeTo(buf[:0], ident.NodeID(1), ident.NodeID(2), seq, packet.BeaconRequest{}, key)
		if err != nil {
			t.Fatal(err)
		}
		m.Transmit(tx, Frame{Data: buf})
		sched.Run()
	}
	for i := 0; i < 50; i++ {
		cycle()
	}
	before := delivered
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("sign→encode→deliver→verify allocates %.1f times per op, want 0", avg)
	}
	if delivered <= before {
		t.Fatal("handler stopped receiving frames during the alloc measurement")
	}
}

// paperField returns n positions uniform over a square field at the
// paper's density (1,110 nodes in 1000×1000 ft), so the field grows with
// n and the neighbour count stays near 80.
func paperField(n int, seed int64) []geo.Point {
	side := math.Sqrt(float64(n) * 1e6 / 1110)
	rnd := rand.New(rand.NewSource(seed))
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: side * rnd.Float64(), Y: side * rnd.Float64()}
	}
	return pos
}

// benchTransmit measures one launch (receiver resolution plus the
// scheduler drain of its deliveries) from the field's centre against
// nRadios radios at the paper's density. Transmit reads the sender's
// neighbour table; inject resolves the same point through the grid,
// as wormhole exits and replay attackers do. Pools are warmed before
// the timer starts so the reported allocs/op is the steady state.
func benchTransmit(b *testing.B, nRadios int, inject bool) {
	sched := sim.New()
	m := NewMedium(sched, rng.New(7), Config{
		Range:   150,
		Ranging: BoundedUniform{MaxError: 10},
	})
	for _, p := range paperField(nRadios, 5) {
		m.NewRadio(p).SetHandler(func(Reception) {})
	}
	side := math.Sqrt(float64(nRadios) * 1e6 / 1110)
	centre := geo.Point{X: side / 2, Y: side / 2}
	tx := m.NewRadio(centre)
	buf := make([]byte, 24)
	launch := func() {
		if inject {
			m.Inject(centre, Frame{Data: buf})
		} else {
			m.Transmit(tx, Frame{Data: buf})
		}
		sched.Run()
	}
	for i := 0; i < 100; i++ { // warm the event/delivery pools
		launch()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		launch()
	}
}

func BenchmarkTransmit(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("radios=%d", n), func(b *testing.B) { benchTransmit(b, n, false) })
	}
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("inject/radios=%d", n), func(b *testing.B) { benchTransmit(b, n, true) })
	}
}

// BenchmarkNewRadio measures building the neighbour tables: one op
// registers the paper's 1,000 radios at its density on a fresh medium.
// This is set-up cost, paid once per scenario rather than per launch.
func BenchmarkNewRadio(b *testing.B) {
	const n = 1000
	pos := paperField(n, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewMedium(sim.New(), rng.New(7), Config{Range: 150})
		for _, p := range pos {
			m.NewRadio(p)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/radio")
}
