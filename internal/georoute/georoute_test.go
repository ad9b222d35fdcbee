package georoute

import (
	"slices"
	"testing"

	"beaconsec/internal/geo"
	"beaconsec/internal/rng"
)

func densePoints(seed uint64, n int, side float64) []geo.Point {
	src := rng.New(seed)
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: src.Uniform(0, side), Y: src.Uniform(0, side)}
	}
	return pts
}

func randomPairs(seed uint64, n, count int) [][2]int {
	src := rng.New(seed)
	pairs := make([][2]int, count)
	for i := range pairs {
		pairs[i] = [2]int{src.Intn(n), src.Intn(n)}
	}
	return pairs
}

// TestAdjacencyMatchesScan checks New's adjacency against an O(N) scan
// with the squared-distance predicate, over several seeds. Nodes 0 and 1
// are placed where that predicate and the hypot one disagree: they are
// in range by squared distance only.
func TestAdjacencyMatchesScan(t *testing.T) {
	const rangeFt = 150
	p := geo.Point{X: 221.45068790910307, Y: 295.0483237721157}
	q := geo.Point{X: 353.14399287108847, Y: 366.8596977193499}
	if p.Dist2(q) > rangeFt*rangeFt || p.Dist(q) <= rangeFt {
		t.Fatal("the pair does not separate the two predicates")
	}
	for seed := uint64(1); seed <= 4; seed++ {
		truth := densePoints(seed, 500, 1000)
		truth[0], truth[1] = p, q
		net := New(truth, truth, rangeFt)
		for i, a := range truth {
			var want []int32
			for j, b := range truth {
				if j != i && b.Dist2(a) <= rangeFt*rangeFt {
					want = append(want, int32(j))
				}
			}
			if got := net.adj[i]; !slices.Equal(got, want) {
				t.Fatalf("seed %d: adjacency of %d = %v, want %v", seed, i, got, want)
			}
		}
	}
}

func TestDeliverTruePositions(t *testing.T) {
	// Dense network, perfect positions: greedy forwarding delivers
	// nearly always.
	truth := densePoints(1, 400, 600)
	net := New(truth, truth, 120)
	rate, hops := net.DeliveryRate(randomPairs(2, len(truth), 200))
	if rate < 0.9 {
		t.Errorf("greedy delivery rate %v on perfect positions", rate)
	}
	if hops <= 0 {
		t.Errorf("mean hops %v", hops)
	}
}

func TestDeliverSameNode(t *testing.T) {
	truth := densePoints(3, 10, 100)
	net := New(truth, truth, 200)
	r := net.Deliver(4, 4)
	if !r.Delivered || r.Hops != 0 {
		t.Errorf("self delivery: %+v", r)
	}
}

func TestDeliverDisconnected(t *testing.T) {
	truth := []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 500, Y: 500}}
	net := New(truth, truth, 100)
	r := net.Deliver(0, 2)
	if r.Delivered {
		t.Error("delivered across a partition")
	}
	if r.Reason == "" {
		t.Error("failure without reason")
	}
}

func TestNoisyPositionsStillRoute(t *testing.T) {
	// Small estimation error (≈ ranging noise) barely hurts greedy
	// forwarding.
	truth := densePoints(4, 400, 600)
	src := rng.New(5)
	believed := make([]geo.Point, len(truth))
	for i, p := range truth {
		believed[i] = geo.Point{X: p.X + src.Uniform(-10, 10), Y: p.Y + src.Uniform(-10, 10)}
	}
	net := New(truth, believed, 120)
	rate, _ := net.DeliveryRate(randomPairs(6, len(truth), 200))
	if rate < 0.85 {
		t.Errorf("delivery rate %v under 10 ft position noise", rate)
	}
}

func TestPoisonedPositionsBreakRouting(t *testing.T) {
	// The paper's motivation, end to end: corrupt a fraction of nodes'
	// believed positions (what an undefended malicious-beacon attack
	// does) and greedy forwarding degrades clearly.
	truth := densePoints(7, 400, 600)
	src := rng.New(8)
	poisoned := make([]geo.Point, len(truth))
	copy(poisoned, truth)
	for i := range poisoned {
		if src.Bool(0.3) {
			// Estimates dragged hundreds of feet, as measured in the
			// undefended E1 runs.
			poisoned[i] = geo.Point{X: src.Uniform(0, 600), Y: src.Uniform(0, 600)}
		}
	}
	clean := New(truth, truth, 120)
	dirty := New(truth, poisoned, 120)
	pairs := randomPairs(9, len(truth), 300)
	cleanRate, _ := clean.DeliveryRate(pairs)
	dirtyRate, _ := dirty.DeliveryRate(pairs)
	if dirtyRate >= cleanRate-0.1 {
		t.Errorf("poisoning did not hurt: clean %v vs poisoned %v", cleanRate, dirtyRate)
	}
}

func TestDeliverTerminates(t *testing.T) {
	// Adversarial believed positions must not loop forever: TTL bounds
	// every attempt.
	truth := densePoints(10, 100, 300)
	src := rng.New(11)
	adversarial := make([]geo.Point, len(truth))
	for i := range adversarial {
		adversarial[i] = geo.Point{X: src.Uniform(0, 300), Y: src.Uniform(0, 300)}
	}
	net := New(truth, adversarial, 100)
	for _, p := range randomPairs(12, len(truth), 100) {
		r := net.Deliver(p[0], p[1])
		if r.Hops > 4*len(truth) {
			t.Fatalf("route exceeded TTL: %+v", r)
		}
	}
}

func TestPathConsistency(t *testing.T) {
	truth := densePoints(13, 200, 500)
	net := New(truth, truth, 120)
	r := net.Deliver(0, 100)
	if !r.Delivered {
		t.Skip("pair disconnected this seed")
	}
	if r.Path[0] != 0 || r.Path[len(r.Path)-1] != 100 {
		t.Errorf("path endpoints: %v", r.Path)
	}
	if len(r.Path) != r.Hops+1 {
		t.Errorf("path length %d vs hops %d", len(r.Path), r.Hops)
	}
	// Every hop is a true radio neighbor.
	for i := 1; i < len(r.Path); i++ {
		if truth[r.Path[i-1]].Dist(truth[r.Path[i]]) > 120 {
			t.Fatalf("hop %d-%d exceeds radio range", r.Path[i-1], r.Path[i])
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"length mismatch": func() { New(make([]geo.Point, 2), make([]geo.Point, 3), 10) },
		"zero range":      func() { New(make([]geo.Point, 2), make([]geo.Point, 2), 0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		})
	}
}

func BenchmarkDeliver(b *testing.B) {
	truth := densePoints(14, 500, 700)
	net := New(truth, truth, 120)
	pairs := randomPairs(15, len(truth), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		net.Deliver(p[0], p[1])
	}
}
