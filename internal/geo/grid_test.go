package geo

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// bruteWithin is the O(N) scan the grid must agree with: every point
// within r of p, in ascending index order.
func bruteWithin(points []Point, p Point, r float64) []int {
	var out []int
	for i, q := range points {
		if q.Dist(p) <= r {
			out = append(out, i)
		}
	}
	return out
}

// gridWithin filters grid candidates with the same exact predicate the
// brute-force scan uses.
func gridWithin(g *Grid, points []Point, p Point, r float64) []int {
	var out []int
	for _, ci := range g.Candidates(p, r, nil) {
		if p.Dist(points[int(ci)]) <= r {
			out = append(out, int(ci))
		}
	}
	return out
}

func TestGridMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		cell := 10 + 140*rnd.Float64()
		n := 1 + rnd.Intn(400)
		points := make([]Point, 0, n+8)
		for i := 0; i < n; i++ {
			// Include out-of-field (negative) coordinates: the grid must
			// not assume a bounded field.
			points = append(points, Point{
				X: -200 + 1400*rnd.Float64(),
				Y: -200 + 1400*rnd.Float64(),
			})
		}
		// Points exactly on cell boundaries, corners, and duplicates.
		points = append(points,
			Point{X: 0, Y: 0},
			Point{X: cell, Y: 0},
			Point{X: cell, Y: cell},
			Point{X: 2 * cell, Y: -cell},
			Point{X: -cell, Y: 3 * cell},
			Point{X: cell, Y: cell}, // duplicate
			Point{X: math.Nextafter(cell, 0), Y: cell},
			Point{X: math.Nextafter(cell, 2*cell), Y: cell},
		)
		g := NewGrid(cell)
		for _, p := range points {
			g.Add(p)
		}
		if g.Len() != len(points) {
			t.Fatalf("grid Len = %d, want %d", g.Len(), len(points))
		}
		for q := 0; q < 30; q++ {
			origin := Point{X: -300 + 1600*rnd.Float64(), Y: -300 + 1600*rnd.Float64()}
			if q%5 == 0 {
				// Query from an indexed point, including boundary ones.
				origin = points[rnd.Intn(len(points))]
			}
			r := rnd.Float64() * 2 * cell
			want := bruteWithin(points, origin, r)
			got := gridWithin(g, points, origin, r)
			if len(got) != len(want) {
				t.Fatalf("trial %d: grid found %d, brute force %d (cell=%v r=%v origin=%v)",
					trial, len(got), len(want), cell, r, origin)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: order/content mismatch at %d: grid %v vs brute %v",
						trial, i, got, want)
				}
			}
		}
	}
}

func TestGridCandidatesSortedSuperset(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	g := NewGrid(50)
	points := make([]Point, 300)
	for i := range points {
		points[i] = Point{X: 1000 * rnd.Float64(), Y: 1000 * rnd.Float64()}
		g.Add(points[i])
	}
	for q := 0; q < 50; q++ {
		origin := Point{X: 1000 * rnd.Float64(), Y: 1000 * rnd.Float64()}
		r := 100 * rnd.Float64()
		cand := g.Candidates(origin, r, nil)
		if !sort.SliceIsSorted(cand, func(i, j int) bool { return cand[i] < cand[j] }) {
			t.Fatalf("candidates not ascending: %v", cand)
		}
		inCand := make(map[int32]bool, len(cand))
		for _, c := range cand {
			if inCand[c] {
				t.Fatalf("duplicate candidate %d", c)
			}
			inCand[c] = true
		}
		for _, i := range bruteWithin(points, origin, r) {
			if !inCand[int32(i)] {
				t.Fatalf("point %d within r=%v of %v missing from candidates", i, r, origin)
			}
		}
	}
}

func TestGridCandidatesAppendsToDst(t *testing.T) {
	g := NewGrid(10)
	g.Add(Point{X: 1, Y: 1})
	dst := []int32{99}
	dst = g.Candidates(Point{X: 0, Y: 0}, 5, dst)
	if len(dst) != 2 || dst[0] != 99 || dst[1] != 0 {
		t.Fatalf("Candidates did not append: %v", dst)
	}
}

func TestGridNegativeRadius(t *testing.T) {
	g := NewGrid(10)
	g.Add(Point{})
	if got := g.Candidates(Point{}, -1, nil); len(got) != 0 {
		t.Fatalf("negative radius returned %v", got)
	}
}

func TestGridBadCellPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGrid(0) did not panic")
		}
	}()
	NewGrid(0)
}

func TestGridFarOutPointsClamp(t *testing.T) {
	// Degenerate but legal: coordinates so large the cell coordinate
	// saturates int32. The point must still be indexed and findable by a
	// query from the same spot.
	g := NewGrid(10)
	far := Point{X: 1e38, Y: -1e38}
	g.Add(far)
	cand := g.Candidates(far, 1, nil)
	if len(cand) != 1 || cand[0] != 0 {
		t.Fatalf("far-out point not found: %v", cand)
	}
}

func BenchmarkGridCandidates(b *testing.B) {
	rnd := rand.New(rand.NewSource(3))
	g := NewGrid(150)
	for i := 0; i < 1000; i++ {
		g.Add(Point{X: 1000 * rnd.Float64(), Y: 1000 * rnd.Float64()})
	}
	origin := Point{X: 500, Y: 500}
	var dst []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = g.Candidates(origin, 150, dst[:0])
	}
	_ = dst
}
