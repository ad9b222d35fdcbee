package deploy

import (
	"errors"
	"math"
	"testing"

	"beaconsec/internal/geo"
)

func collectMetro(t *testing.T, cfg MetroConfig) []MetroNode {
	t.Helper()
	var all []MetroNode
	err := cfg.Stream(func(chunk []MetroNode) error {
		all = append(all, chunk...)
		return nil
	})
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	return all
}

func TestMetroStreamChunkSizeInvariant(t *testing.T) {
	base := Metro(20_000, 7)
	want := collectMetro(t, base)
	if int64(len(want)) != base.NumNodes {
		t.Fatalf("generated %d nodes, want %d", len(want), base.NumNodes)
	}
	for _, size := range []int{1, 97, 1000, 1 << 15} {
		cfg := base
		cfg.chunk = size
		got := collectMetro(t, cfg)
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d nodes, want %d", size, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunk %d: node %d = %+v, want %+v", size, i, got[i], want[i])
			}
		}
	}
}

func TestMetroStreamIndexOrderAndBounds(t *testing.T) {
	cfg := Metro(10_000, 3)
	field := cfg.Field()
	next := int64(0)
	err := cfg.Stream(func(chunk []MetroNode) error {
		if len(chunk) > cfg.chunkSize() {
			t.Fatalf("chunk of %d exceeds chunk size %d", len(chunk), cfg.chunkSize())
		}
		for _, n := range chunk {
			if n.Index != next {
				t.Fatalf("index %d out of order, want %d", n.Index, next)
			}
			next++
			if !inRect(field, n.Loc) {
				t.Fatalf("node %d at %v outside field %+v", n.Index, n.Loc, field)
			}
			if n.Kind != KindSensor && n.Kind != KindBeacon && n.Kind != KindMalicious {
				t.Fatalf("node %d has kind %v", n.Index, n.Kind)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if next != cfg.NumNodes {
		t.Fatalf("streamed %d nodes, want %d", next, cfg.NumNodes)
	}
}

func TestMetroPopulationMix(t *testing.T) {
	cfg := Metro(50_000, 11)
	g, err := cfg.BuildGrid()
	if err != nil {
		t.Fatalf("BuildGrid: %v", err)
	}
	if g.TotalNodes != cfg.NumNodes {
		t.Fatalf("TotalNodes = %d, want %d", g.TotalNodes, cfg.NumNodes)
	}
	beaconFrac := float64(g.TotalBeacons) / float64(g.TotalNodes)
	if math.Abs(beaconFrac-metroBeaconFrac) > 0.01 {
		t.Errorf("beacon fraction = %v, want ≈ %v", beaconFrac, metroBeaconFrac)
	}
	malFrac := float64(g.TotalMalicious) / float64(g.TotalBeacons)
	if math.Abs(malFrac-metroMaliciousFrac) > 0.02 {
		t.Errorf("malicious fraction = %v, want ≈ %v", malFrac, metroMaliciousFrac)
	}
}

func TestMetroClustersSkewDensity(t *testing.T) {
	// With half the population in four tight clusters, the densest grid
	// cell must hold far more than the uniform expectation.
	cfg := Metro(50_000, 5)
	g, err := cfg.BuildGrid()
	if err != nil {
		t.Fatalf("BuildGrid: %v", err)
	}
	var peak int32
	for _, c := range g.nodes {
		if c > peak {
			peak = c
		}
	}
	uniform := float64(cfg.NumNodes) / float64(g.Cols*g.Rows)
	if float64(peak) < 3*uniform {
		t.Errorf("peak cell = %d, uniform expectation ≈ %.0f: clusters missing?", peak, uniform)
	}
}

func TestMetroCountsNearApproximatesCensus(t *testing.T) {
	cfg := Metro(20_000, 9)
	g, err := cfg.BuildGrid()
	if err != nil {
		t.Fatalf("BuildGrid: %v", err)
	}
	field := cfg.Field()
	center := geo.Point{
		X: (field.Min.X + field.Max.X) / 2,
		Y: (field.Min.Y + field.Max.Y) / 2,
	}
	r := 3.0 * MetroRange
	var exactNodes, exactBeacons float64
	err = cfg.Stream(func(chunk []MetroNode) error {
		for _, n := range chunk {
			if n.Loc.Dist(center) <= r {
				exactNodes++
				if n.Kind.IsBeacon() {
					exactBeacons++
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	estNodes, estBeacons, _ := g.CountsNear(center, r)
	if exactNodes < 100 {
		t.Fatalf("census too small to compare (%v nodes)", exactNodes)
	}
	if rel := math.Abs(estNodes-exactNodes) / exactNodes; rel > 0.35 {
		t.Errorf("CountsNear nodes = %v vs census %v (rel err %.2f)", estNodes, exactNodes, rel)
	}
	if rel := math.Abs(estBeacons-exactBeacons) / exactBeacons; rel > 0.45 {
		t.Errorf("CountsNear beacons = %v vs census %v (rel err %.2f)", estBeacons, exactBeacons, rel)
	}
	if n, _, _ := g.CountsNear(center, 0); n != 0 {
		t.Errorf("CountsNear(r=0) = %v, want 0", n)
	}
}

func TestMetroValidate(t *testing.T) {
	for _, tt := range []struct {
		name  string
		nodes int64
	}{
		{"zero nodes", 0},
		{"too many nodes", maxMetroNodes + 1},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if err := Metro(tt.nodes, 1).Validate(); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
	for _, n := range []int64{1, 100_000, maxMetroNodes} {
		if err := Metro(n, 1).Validate(); err != nil {
			t.Errorf("Metro(%d) invalid: %v", n, err)
		}
	}
}

// TestMetroGridWithinBudget pins why the metro config needs no grid-size
// check: at the fixed density and range, the count grid holds about one
// cell per 22 nodes, far inside the budget the paper-scale Config.Validate
// enforces, at every accepted population.
func TestMetroGridWithinBudget(t *testing.T) {
	for _, n := range []int64{1, 2, 1000, 1_000_000, maxMetroNodes} {
		if err := checkGridSize(n, Metro(n, 1).Field(), MetroRange); err != nil {
			t.Errorf("%d nodes: %v", n, err)
		}
	}
}

func TestConfigValidateGridBounds(t *testing.T) {
	// The paper-scale Config shares the grid budget: a huge field with a
	// small range is a misconfiguration, not a deployment, and must be
	// rejected with the typed error.
	cfg := Paper()
	cfg.Field = geo.Square(1e6)
	cfg.Range = 10
	err := cfg.Validate()
	var se *SizeError
	if !errors.As(err, &se) {
		t.Fatalf("Validate = %v, want *SizeError", err)
	}
	if se.Nodes != int64(cfg.N) {
		t.Errorf("SizeError.Nodes = %d, want %d", se.Nodes, cfg.N)
	}
	if err := Paper().Validate(); err != nil {
		t.Errorf("paper config rejected: %v", err)
	}
}

func TestMetroStreamAbortsOnVisitError(t *testing.T) {
	cfg := Metro(10_000, 1)
	cfg.chunk = 100
	sentinel := errors.New("stop")
	calls := 0
	err := cfg.Stream(func([]MetroNode) error {
		calls++
		if calls == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 3 {
		t.Fatalf("visit called %d times after abort, want 3", calls)
	}
}

func TestMetroShardRanges(t *testing.T) {
	cfg := Metro(100_000, 1)
	cs := int64(cfg.chunkSize())
	for _, k := range []int{-1, 0, 1, 2, 3, 4, 7, 13, 64} {
		ranges := cfg.ShardRanges(k)
		wantK := k
		if wantK < 1 {
			wantK = 1
		}
		chunks := (cfg.NumNodes + cs - 1) / cs
		if int64(wantK) > chunks {
			wantK = int(chunks)
		}
		if len(ranges) != wantK {
			t.Fatalf("k=%d: %d ranges, want %d", k, len(ranges), wantK)
		}
		next := int64(0)
		for i, r := range ranges {
			if r.Lo != next {
				t.Fatalf("k=%d shard %d: Lo = %d, want %d (contiguous ascending)", k, i, r.Lo, next)
			}
			if r.Hi <= r.Lo {
				t.Fatalf("k=%d shard %d: empty range %+v", k, i, r)
			}
			if r.Lo%cs != 0 {
				t.Fatalf("k=%d shard %d: Lo = %d not chunk-aligned (chunk %d)", k, i, r.Lo, cs)
			}
			next = r.Hi
		}
		if next != cfg.NumNodes {
			t.Fatalf("k=%d: ranges end at %d, want %d", k, next, cfg.NumNodes)
		}
	}
}

func TestMetroShardRangesMoreShardsThanChunks(t *testing.T) {
	cfg := Metro(10_000, 1)
	cfg.chunk = 4_000 // 3 chunks
	ranges := cfg.ShardRanges(8)
	if len(ranges) != 3 {
		t.Fatalf("%d ranges for 3 chunks, want 3: %+v", len(ranges), ranges)
	}
	if ranges[2].Hi != cfg.NumNodes {
		t.Fatalf("last range ends at %d, want %d", ranges[2].Hi, cfg.NumNodes)
	}
}

// TestMetroStreamShardsPartition pins the routing contract: the
// concatenation of each shard's chunks in shard-then-stream order is
// exactly the serial stream, every chunk lies wholly inside its shard's
// range, and shard indices never decrease.
func TestMetroStreamShardsPartition(t *testing.T) {
	cfg := Metro(30_000, 5)
	cfg.chunk = 1_000
	want := collectMetro(t, cfg)
	const k = 4
	ranges := cfg.ShardRanges(k)
	perShard := make([][]MetroNode, len(ranges))
	last := 0
	err := cfg.StreamShards(k, func(shard int, chunk []MetroNode) error {
		if shard < last {
			t.Fatalf("shard index went backwards: %d after %d", shard, last)
		}
		last = shard
		r := ranges[shard]
		if chunk[0].Index < r.Lo || chunk[len(chunk)-1].Index >= r.Hi {
			t.Fatalf("chunk [%d,%d] escapes shard %d range %+v",
				chunk[0].Index, chunk[len(chunk)-1].Index, shard, r)
		}
		perShard[shard] = append(perShard[shard], chunk...)
		return nil
	})
	if err != nil {
		t.Fatalf("StreamShards: %v", err)
	}
	var got []MetroNode
	for _, s := range perShard {
		got = append(got, s...)
	}
	if len(got) != len(want) {
		t.Fatalf("sharded stream yielded %d nodes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("node %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func BenchmarkDeployMetroStream100k(b *testing.B) {
	if testing.Short() {
		b.Skip("metro-scale macro benchmark; run without -short")
	}
	cfg := Metro(100_000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var count int64
		err := cfg.Stream(func(chunk []MetroNode) error {
			count += int64(len(chunk))
			return nil
		})
		if err != nil || count != cfg.NumNodes {
			b.Fatalf("count=%d err=%v", count, err)
		}
	}
}

func BenchmarkDeployMetroGrid100k(b *testing.B) {
	if testing.Short() {
		b.Skip("metro-scale macro benchmark; run without -short")
	}
	cfg := Metro(100_000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := cfg.BuildGrid()
		if err != nil || g.TotalNodes != cfg.NumNodes {
			b.Fatalf("total=%d err=%v", g.TotalNodes, err)
		}
	}
}
