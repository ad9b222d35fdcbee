package deploy

import (
	"fmt"
	"math"

	"beaconsec/internal/geo"
	"beaconsec/internal/rng"
)

// Metro-scale deployments (100k–1M nodes) cannot be materialized the way
// Paper-scale ones are: a Deployment holds every Node plus a spatial
// index with per-cell candidate slices, and the ident space caps out at
// ~65k IDs anyway. The metro family instead generates nodes as a stream
// of fixed-size chunks in index order (construction memory is
// O(chunk size), independent of NumNodes) and summarizes the field as a
// per-cell count grid (O(cells) memory, no per-node retention).

// MetroNode is one generated node in a metro-scale deployment stream.
// Indices are int64 — metro populations exceed both the ident.NodeID
// space and 32-bit counters.
type MetroNode struct {
	Index int64
	Kind  Kind
	Loc   geo.Point
}

// MetroConfig parameterizes a metro-scale heterogeneous deployment at
// the paper's §4 density and population mix: a uniform background
// population plus Gaussian density clusters (the "downtown cores" of a
// metro field). Only the population and the seed vary; the field, the
// radio range, the mix and the clustering follow from them and the
// constants below.
type MetroConfig struct {
	// NumNodes is the total population.
	NumNodes int64
	// Seed drives placement, clustering, and the kind assignment.
	Seed uint64

	// chunk overrides metroChunkSize when positive, so this package's
	// tests can stream many chunks from a small population. Chunking
	// never changes the generated nodes — the stream is one rng sequence
	// consumed in index order — but it sets the shard boundaries.
	chunk int
}

// The fixed shape of every metro deployment: the paper's 150 ft range,
// its 110/1000 beacons of which 10/110 are compromised, and four density
// clusters holding half the population.
const (
	// MetroRange is the radio communication range in feet, also the
	// count grid's cell size.
	MetroRange = 150
	// metroBeaconFrac is the fraction of nodes that are beacon nodes.
	metroBeaconFrac = 0.11
	// metroMaliciousFrac is the fraction of beacon nodes that are
	// compromised.
	metroMaliciousFrac = 1.0 / 11
	// metroClusters is the number of Gaussian density clusters.
	metroClusters = 4
	// metroClusterWeight is the probability a node is drawn from a
	// cluster rather than the uniform background.
	metroClusterWeight = 0.5
)

// metroChunkSize is the streaming chunk: big enough to amortize
// per-chunk overhead, small enough that a chunk is cache- and
// allocation-trivial next to the count grid.
const metroChunkSize = 8192

// maxMetroNodes bounds NumNodes: beyond a billion nodes the int64 cell
// counters and float64 index arithmetic here are no longer the
// bottleneck worth reasoning about.
const maxMetroNodes = 1 << 30

// Metro returns the metro-scale configuration of n nodes placed from
// seed.
func Metro(n int64, seed uint64) MetroConfig {
	return MetroConfig{NumNodes: n, Seed: seed}
}

// side is the field's side in feet: n nodes at the paper's density of
// 1000 nodes per 1000×1000 ft.
func (c MetroConfig) side() float64 { return math.Sqrt(float64(c.NumNodes) * 1e3) }

// Field returns the sensing field, a square of the density's side.
func (c MetroConfig) Field() geo.Rect { return geo.Square(c.side()) }

// Validate returns an error for a population outside [1, 2^30].
func (c MetroConfig) Validate() error {
	if c.NumNodes <= 0 || c.NumNodes > maxMetroNodes {
		return fmt.Errorf("deploy: metro NumNodes = %d outside [1, %d]", c.NumNodes, int64(maxMetroNodes))
	}
	return nil
}

func (c MetroConfig) chunkSize() int {
	if c.chunk > 0 {
		return c.chunk
	}
	return metroChunkSize
}

// Stream generates the deployment chunk by chunk in index order. The
// chunk slice passed to visit is reused between calls — callers must
// fold it into their accumulators, not retain it. A non-nil error from
// visit aborts the stream and is returned.
func (c MetroConfig) Stream(visit func(chunk []MetroNode) error) error {
	if err := c.Validate(); err != nil {
		return err
	}
	field := c.Field()
	sigma := c.side() / 20 // cluster standard deviation in feet
	src := rng.New(c.Seed)
	var centers [metroClusters]geo.Point
	clusterSrc := src.Split("metro-clusters")
	for i := range centers {
		centers[i] = geo.Point{
			X: clusterSrc.Uniform(field.Min.X, field.Max.X),
			Y: clusterSrc.Uniform(field.Min.Y, field.Max.Y),
		}
	}
	place := src.Split("metro-placement")
	chunk := make([]MetroNode, 0, min(int64(c.chunkSize()), c.NumNodes))
	for i := int64(0); i < c.NumNodes; i++ {
		var loc geo.Point
		if place.Bool(metroClusterWeight) {
			ctr := centers[place.Intn(metroClusters)]
			loc = field.Clamp(geo.Point{
				X: ctr.X + place.NormFloat64()*sigma,
				Y: ctr.Y + place.NormFloat64()*sigma,
			})
		} else {
			loc = geo.Point{
				X: place.Uniform(field.Min.X, field.Max.X),
				Y: place.Uniform(field.Min.Y, field.Max.Y),
			}
		}
		kind := KindSensor
		if place.Bool(metroBeaconFrac) {
			if place.Bool(metroMaliciousFrac) {
				kind = KindMalicious
			} else {
				kind = KindBeacon
			}
		}
		chunk = append(chunk, MetroNode{Index: i, Kind: kind, Loc: loc})
		if len(chunk) == cap(chunk) {
			if err := visit(chunk); err != nil {
				return err
			}
			chunk = chunk[:0]
		}
	}
	if len(chunk) > 0 {
		return visit(chunk)
	}
	return nil
}

// IndexRange is a half-open [Lo, Hi) range of node indices — one shard of
// a partitioned metro deployment.
type IndexRange struct {
	Lo, Hi int64
}

// ShardRanges partitions [0, NumNodes) into at most k contiguous,
// ascending index ranges whose union is the whole population. Boundaries
// are aligned to the streaming chunk size, so every chunk Stream emits
// lands wholly inside one shard — StreamShards routes chunks without ever
// splitting one. Fewer than k ranges come back when the population has
// fewer chunks than shards; k < 1 is treated as 1.
//
// The ranges are index-aligned, not space-aligned: the generator places
// nodes independently per index, so any contiguous index range is an
// unbiased spatial sample of the field. Density queries go to the
// MetroGrid, which is global and shard-blind.
func (c MetroConfig) ShardRanges(k int) []IndexRange {
	if k < 1 {
		k = 1
	}
	cs := int64(c.chunkSize())
	chunks := (c.NumNodes + cs - 1) / cs
	if int64(k) > chunks {
		k = int(chunks)
	}
	ranges := make([]IndexRange, 0, k)
	lo := int64(0)
	for i := 1; i <= k; i++ {
		hi := min(int64(i)*chunks/int64(k)*cs, c.NumNodes)
		ranges = append(ranges, IndexRange{Lo: lo, Hi: hi})
		lo = hi
	}
	return ranges
}

// StreamShards streams the deployment exactly like Stream — one rng
// sequence, index order, reused chunk slices — additionally tagging each
// chunk with the shard that owns it under ShardRanges(k). Because shard
// boundaries are chunk-aligned, a chunk always belongs to exactly one
// shard, and shard indices are non-decreasing over the stream.
func (c MetroConfig) StreamShards(k int, visit func(shard int, chunk []MetroNode) error) error {
	ranges := c.ShardRanges(k)
	shard := 0
	return c.Stream(func(chunk []MetroNode) error {
		for shard < len(ranges)-1 && chunk[0].Index >= ranges[shard].Hi {
			shard++
		}
		return visit(shard, chunk)
	})
}

// MetroGrid is the memory-bounded spatial summary of a metro deployment:
// per-cell population counts by kind. It answers density queries in time
// proportional to the query disc's cell footprint and costs O(cells)
// memory regardless of NumNodes — the grid never holds a candidate slice
// per node.
type MetroGrid struct {
	Field geo.Rect
	Cell  float64
	Cols  int
	Rows  int

	TotalNodes     int64
	TotalBeacons   int64
	TotalMalicious int64

	nodes     []int32
	beacons   []int32
	malicious []int32
}

// BuildGrid streams the deployment once and folds it into a fresh count
// grid, chunk by chunk in index order (so the result is deterministic
// and independent of the chunk size).
func (c MetroConfig) BuildGrid() (*MetroGrid, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	field := c.Field()
	g := &MetroGrid{
		Field: field,
		Cell:  MetroRange,
		Cols:  max(1, int(math.Ceil(field.Width()/MetroRange))),
		Rows:  max(1, int(math.Ceil(field.Height()/MetroRange))),
	}
	g.nodes = make([]int32, g.Cols*g.Rows)
	g.beacons = make([]int32, g.Cols*g.Rows)
	g.malicious = make([]int32, g.Cols*g.Rows)
	err := c.Stream(func(chunk []MetroNode) error {
		for _, n := range chunk {
			g.Add(n)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// Add folds one node into the grid.
func (g *MetroGrid) Add(n MetroNode) {
	i := g.cellIndex(n.Loc)
	g.nodes[i]++
	g.TotalNodes++
	switch n.Kind {
	case KindBeacon:
		g.beacons[i]++
		g.TotalBeacons++
	case KindMalicious:
		g.beacons[i]++
		g.malicious[i]++
		g.TotalBeacons++
		g.TotalMalicious++
	}
}

func (g *MetroGrid) cellIndex(p geo.Point) int {
	cx := int((p.X - g.Field.Min.X) / g.Cell)
	cy := int((p.Y - g.Field.Min.Y) / g.Cell)
	cx = min(max(cx, 0), g.Cols-1)
	cy = min(max(cy, 0), g.Rows-1)
	return cy*g.Cols + cx
}

// CountsNear estimates the population within radius r of p, by kind
// (nodes, beacons — benign and malicious — and malicious alone). Each
// cell overlapping the disc's bounding box contributes its counts scaled
// by the fraction of a 2×2 subsample of the cell that falls inside the
// disc — a deterministic O(r²/cell²) density estimate, not an exact
// census (the grid deliberately does not know where nodes are within a
// cell).
func (g *MetroGrid) CountsNear(p geo.Point, r float64) (nodes, beacons, malicious float64) {
	if r <= 0 {
		return 0, 0, 0
	}
	cx0 := int((p.X - r - g.Field.Min.X) / g.Cell)
	cx1 := int((p.X + r - g.Field.Min.X) / g.Cell)
	cy0 := int((p.Y - r - g.Field.Min.Y) / g.Cell)
	cy1 := int((p.Y + r - g.Field.Min.Y) / g.Cell)
	cx0, cx1 = max(cx0, 0), min(cx1, g.Cols-1)
	cy0, cy1 = max(cy0, 0), min(cy1, g.Rows-1)
	r2 := r * r
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			// 2×2 subsample at the cell's quarter points.
			baseX := g.Field.Min.X + float64(cx)*g.Cell
			baseY := g.Field.Min.Y + float64(cy)*g.Cell
			in := 0
			for _, fx := range [2]float64{0.25, 0.75} {
				for _, fy := range [2]float64{0.25, 0.75} {
					q := geo.Point{X: baseX + fx*g.Cell, Y: baseY + fy*g.Cell}
					if q.Dist2(p) <= r2 {
						in++
					}
				}
			}
			if in == 0 {
				continue
			}
			w := float64(in) / 4
			i := cy*g.Cols + cx
			nodes += w * float64(g.nodes[i])
			beacons += w * float64(g.beacons[i])
			malicious += w * float64(g.malicious[i])
		}
	}
	return nodes, beacons, malicious
}

// SizeError reports a configuration whose spatial grid would dwarf the
// population it serves — the silent-OOM shape (huge field, small range)
// that used to allocate unchecked.
type SizeError struct {
	// Nodes is the configured population.
	Nodes int64
	// Cells is the number of grid cells the field/range geometry implies.
	Cells int64
	// Limit is the maximum allowed for this population.
	Limit int64
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("deploy: field/range imply %d grid cells for %d nodes (limit %d): shrink the field or widen the range",
		e.Cells, e.Nodes, e.Limit)
}

// Grid-size budget: a spatial index may allocate a fixed base plus a
// bounded number of cells per node. Beyond that the grid is empty space
// bookkeeping — a misconfiguration, not a deployment.
const (
	maxCellsBase    = 1 << 16
	maxCellsPerNode = 64
)

// checkGridSize bounds the cell count a field/range geometry implies
// against the population, returning a *SizeError when it is out of
// proportion.
func checkGridSize(nodes int64, field geo.Rect, rng float64) error {
	cols := math.Ceil(field.Width()/rng) + 1
	rows := math.Ceil(field.Height()/rng) + 1
	cells := cols * rows
	limit := float64(maxCellsBase) + float64(maxCellsPerNode)*float64(nodes)
	if cells > limit {
		return &SizeError{
			Nodes: nodes,
			Cells: int64(math.Min(cells, math.MaxInt64)),
			Limit: int64(limit),
		}
	}
	return nil
}
