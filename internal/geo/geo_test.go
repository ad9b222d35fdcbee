package geo

import (
	"math"
	"testing"
	"testing/quick"

	"beaconsec/internal/rng"
)

func TestDistKnown(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 1}, Point{1, 1}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-3, -4}, Point{0, 0}, 5},
		{"paper wormhole span", Point{100, 100}, Point{800, 700}, math.Hypot(700, 600)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
		})
	}
}

func TestDistSymmetry(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if anyAbnormal(ax, ay, bx, by) {
			return true
		}
		a, b := Point{ax, ay}, Point{bx, by}
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	src := rng.New(5)
	for i := 0; i < 5000; i++ {
		a := Point{src.Uniform(-100, 100), src.Uniform(-100, 100)}
		b := Point{src.Uniform(-100, 100), src.Uniform(-100, 100)}
		c := Point{src.Uniform(-100, 100), src.Uniform(-100, 100)}
		if a.Dist(c) > a.Dist(b)+b.Dist(c)+1e-9 {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestDist2ConsistentWithDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if anyAbnormal(ax, ay, bx, by) {
			return true
		}
		a, b := Point{ax, ay}, Point{bx, by}
		d := a.Dist(b)
		return math.Abs(a.Dist2(b)-d*d) <= 1e-6*(1+d*d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func anyAbnormal(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
			return true
		}
	}
	return false
}

func TestVectorOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -4}
	if got := p.Add(q); got != (Point{4, -2}) {
		t.Errorf("Add = %v", got)
	}
}

func TestRect(t *testing.T) {
	r := Square(1000)
	if r.Width() != 1000 || r.Height() != 1000 {
		t.Fatalf("Square(1000) has extent %v x %v", r.Width(), r.Height())
	}
	if r.Min != (Point{0, 0}) || r.Max != (Point{1000, 1000}) {
		t.Errorf("Square(1000) = %+v, want anchored at the origin", r)
	}
}

func TestRectClamp(t *testing.T) {
	r := Square(10)
	c := r.Clamp(Point{-5, 20})
	if c.X != 0 || !(c.Y < 10 && c.Y > 9.999) {
		t.Errorf("Clamp result %v not on the rect's half-open boundary", c)
	}
	inside := Point{3, 4}
	if got := r.Clamp(inside); got != inside {
		t.Errorf("Clamp moved interior point: %v", got)
	}
}
