// Package geo provides the planar geometry primitives used by the
// simulator: points, rectangles, and a uniform-grid spatial index for
// neighbor queries over node deployments.
//
// The paper deploys nodes in a square sensing field measured in feet; all
// coordinates here are float64 feet.
package geo

import (
	"fmt"
	"math"
	"slices"
)

// Point is a location in the sensing field, in feet.
type Point struct {
	X, Y float64
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y)
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root for comparisons on hot paths.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Rect is an axis-aligned rectangle, half-open: Min inclusive, Max
// exclusive (Clamp keeps points strictly below Max).
type Rect struct {
	Min, Max Point
}

// Square returns a side × side field anchored at the origin.
func Square(side float64) Rect {
	return Rect{Min: Point{0, 0}, Max: Point{side, side}}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Clamp returns p moved to the nearest point inside r (on the boundary if
// p is outside).
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), math.Nextafter(r.Max.X, r.Min.X)),
		Y: math.Min(math.Max(p.Y, r.Min.Y), math.Nextafter(r.Max.Y, r.Min.Y)),
	}
}

// Grid is an incremental uniform hash grid over points in unbounded
// space: it needs no bounds up front, accepts points anywhere (including
// outside any nominal field, e.g. wormhole endpoints), and supports Add
// at any time. The radio medium, deployments and the routing substrate
// use it to find neighbours in O(neighbors) instead of O(N).
//
// Determinism contract: Candidates visits grid cells in a fixed order
// (row-major over the query box) and then sorts the gathered indices
// ascending, so for any query the result order equals the order a
// brute-force scan over all points in insertion order would produce
// (filtered to the candidate superset). Callers that must preserve a
// historical visit order — and therefore rng draw order — apply their
// own exact distance predicate to the candidates.
type Grid struct {
	cell  float64
	cells map[gridKey][]int32
	n     int
}

type gridKey struct{ cx, cy int32 }

// NewGrid builds an empty grid with the given cell size, which should
// be about the query radius passed to Candidates (one cell ring then
// covers the query box). It panics on a non-positive cell size.
func NewGrid(cell float64) *Grid {
	if cell <= 0 {
		panic(fmt.Sprintf("geo: non-positive grid cell size %v", cell))
	}
	return &Grid{cell: cell, cells: make(map[gridKey][]int32)}
}

func (g *Grid) keyOf(p Point) gridKey {
	return gridKey{cx: cellCoord(p.X, g.cell), cy: cellCoord(p.Y, g.cell)}
}

// cellCoord maps a coordinate to its cell index, clamped into int32
// range so far-out points (degenerate but legal) land in edge cells
// rather than overflowing.
func cellCoord(v, cell float64) int32 {
	c := math.Floor(v / cell)
	if c < math.MinInt32 {
		return math.MinInt32
	}
	if c > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(c)
}

// Add inserts a point and returns its index (insertion order).
func (g *Grid) Add(p Point) int {
	i := g.n
	g.n++
	k := g.keyOf(p)
	g.cells[k] = append(g.cells[k], int32(i))
	return i
}

// Len returns the number of points added.
func (g *Grid) Len() int { return g.n }

// Candidates appends to dst the indices of every point whose cell
// intersects the box p ± r — a superset of the points within distance
// r of p — in ascending index order. It does no exact distance
// filtering: the caller applies its own predicate, keeping whatever
// float semantics it had before the grid existed.
func (g *Grid) Candidates(p Point, r float64, dst []int32) []int32 {
	if r < 0 {
		return dst
	}
	minCX := cellCoord(p.X-r, g.cell)
	maxCX := cellCoord(p.X+r, g.cell)
	minCY := cellCoord(p.Y-r, g.cell)
	maxCY := cellCoord(p.Y+r, g.cell)
	start := len(dst)
	for cy := minCY; ; cy++ {
		for cx := minCX; ; cx++ {
			dst = append(dst, g.cells[gridKey{cx, cy}]...)
			if cx == maxCX {
				break
			}
		}
		if cy == maxCY {
			break
		}
	}
	// The gathered set is a concatenation of per-cell ascending runs;
	// pdqsort exploits those runs and allocates nothing.
	slices.Sort(dst[start:])
	return dst
}
