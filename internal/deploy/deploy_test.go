package deploy

import (
	"math"
	"slices"
	"testing"

	"beaconsec/internal/geo"
	"beaconsec/internal/ident"
)

func TestPaperConfig(t *testing.T) {
	cfg := Paper()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
	if cfg.N != 1000 || cfg.Nb != 110 || cfg.Na != 10 {
		t.Errorf("paper population = %d/%d/%d", cfg.N, cfg.Nb, cfg.Na)
	}
	if cfg.Range != 150 || cfg.DetectingIDs != 8 {
		t.Errorf("paper range/m = %v/%d", cfg.Range, cfg.DetectingIDs)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero N", func(c *Config) { c.N = 0 }},
		{"Nb > N", func(c *Config) { c.Nb = c.N + 1 }},
		{"Na > Nb", func(c *Config) { c.Na = c.Nb + 1 }},
		{"empty field", func(c *Config) { c.Field = geo.Rect{} }},
		{"zero range", func(c *Config) { c.Range = 0 }},
		{"negative m", func(c *Config) { c.DetectingIDs = -1 }},
		{"id overflow", func(c *Config) { c.N = 60000; c.Nb = 7000; c.DetectingIDs = 8 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := Paper()
			tt.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestNewCounts(t *testing.T) {
	d := New(Paper())
	if len(d.Nodes) != 1000 {
		t.Fatalf("nodes = %d", len(d.Nodes))
	}
	if got := len(d.Beacons()); got != 110 {
		t.Errorf("beacons = %d", got)
	}
	if got := len(d.MaliciousBeacons()); got != 10 {
		t.Errorf("malicious = %d", got)
	}
	if got := len(d.BenignBeacons()); got != 100 {
		t.Errorf("benign = %d", got)
	}
	if got := len(d.Sensors()); got != 890 {
		t.Errorf("sensors = %d", got)
	}
}

// inRect reports whether p lies in the half-open rectangle r.
func inRect(r geo.Rect, p geo.Point) bool {
	return p.X >= r.Min.X && p.X < r.Max.X && p.Y >= r.Min.Y && p.Y < r.Max.Y
}

func TestNodesInsideField(t *testing.T) {
	d := New(Paper())
	for _, n := range d.Nodes {
		if !inRect(d.Cfg.Field, n.Loc) {
			t.Fatalf("node %v at %v outside field", n.ID, n.Loc)
		}
	}
}

func TestKindsAndIDsConsistent(t *testing.T) {
	d := New(Paper())
	seen := make(map[ident.NodeID]int, len(d.Nodes))
	for i, n := range d.Nodes {
		if n.Index != i {
			t.Fatalf("node %d has Index %d", i, n.Index)
		}
		if i < d.Cfg.Nb {
			if !n.Kind.IsBeacon() {
				t.Fatalf("node %d in beacon range is %v", i, n.Kind)
			}
			if !d.Space.IsBeaconID(n.ID) {
				t.Fatalf("beacon node %d has non-beacon ID %v", i, n.ID)
			}
		} else {
			if n.Kind != KindSensor {
				t.Fatalf("node %d in sensor range is %v", i, n.Kind)
			}
			if d.Space.IsBeaconID(n.ID) {
				t.Fatalf("sensor node %d has beacon ID %v", i, n.ID)
			}
		}
		if j, dup := seen[n.ID]; dup {
			t.Fatalf("nodes %d and %d share ID %v", j, i, n.ID)
		}
		seen[n.ID] = i
	}
}

func TestDeterministicBySeed(t *testing.T) {
	a := New(Paper())
	b := New(Paper())
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("same seed, different node %d", i)
		}
	}
	cfg := Paper()
	cfg.Seed = 2
	c := New(cfg)
	same := 0
	for i := range a.Nodes {
		if a.Nodes[i].Loc == c.Nodes[i].Loc {
			same++
		}
	}
	if same == len(a.Nodes) {
		t.Error("different seeds produced identical placement")
	}
}

func TestNeighborsSymmetricAndInRange(t *testing.T) {
	d := New(Paper())
	var buf []int
	nbrs := make([][]int, len(d.Nodes))
	for i := range d.Nodes {
		buf = d.Neighbors(i, nil)
		nbrs[i] = append([]int(nil), buf...)
		for _, j := range buf {
			if j == i {
				t.Fatalf("node %d is its own neighbor", i)
			}
			if dist := d.Nodes[i].Loc.Dist(d.Nodes[j].Loc); dist > d.Cfg.Range {
				t.Fatalf("neighbor pair (%d,%d) at distance %v > range", i, j, dist)
			}
		}
	}
	// Symmetry ("if node A can reach node B, then node B can reach A").
	for i, ns := range nbrs {
		for _, j := range ns {
			found := false
			for _, k := range nbrs[j] {
				if k == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("neighborhood asymmetric: %d has %d but not vice versa", i, j)
			}
		}
	}
}

// TestNeighborsMatchScan checks Neighbors against an O(N) scan with the
// squared-distance predicate, over several seeds. Nodes 0 and 1 are
// placed where that predicate and the hypot one disagree: they are in
// range by squared distance only.
func TestNeighborsMatchScan(t *testing.T) {
	p := geo.Point{X: 221.45068790910307, Y: 295.0483237721157}
	q := geo.Point{X: 353.14399287108847, Y: 366.8596977193499}
	cfg := Paper()
	r2 := cfg.Range * cfg.Range
	if p.Dist2(q) > r2 || p.Dist(q) <= cfg.Range {
		t.Fatal("the pair does not separate the two predicates")
	}
	for seed := uint64(1); seed <= 4; seed++ {
		cfg.Seed = seed
		random := New(cfg)
		locs := make([]geo.Point, len(random.Nodes))
		for i, n := range random.Nodes {
			locs[i] = n.Loc
		}
		locs[0], locs[1] = p, q
		d := NewManual(cfg, locs, random.MaliciousBeacons())
		for i, n := range d.Nodes {
			var want []int
			for j, m := range d.Nodes {
				if j != i && m.Loc.Dist2(n.Loc) <= r2 {
					want = append(want, j)
				}
			}
			if got := d.Neighbors(i, nil); !slices.Equal(got, want) {
				t.Fatalf("seed %d: Neighbors(%d) = %v, want %v", seed, i, got, want)
			}
		}
	}
}

func TestAvgBeaconNeighborsScale(t *testing.T) {
	d := New(Paper())
	got := d.AvgBeaconNeighbors()
	// Density: 110 beacons over 10^6 ft², disc of πR² ≈ 70,686 ft² ⇒
	// ≈ 7.8 expected, lower with edge effects.
	want := float64(110) / 1e6 * math.Pi * 150 * 150
	if got < want*0.6 || got > want*1.1 {
		t.Errorf("AvgBeaconNeighbors = %v, want ≈ %v (edge-corrected)", got, want)
	}
}

func TestMaliciousSubsetVariesWithSeed(t *testing.T) {
	cfg := Paper()
	a := New(cfg)
	cfg.Seed = 99
	b := New(cfg)
	sameSet := true
	am := a.MaliciousBeacons()
	bm := b.MaliciousBeacons()
	if len(am) != len(bm) {
		t.Fatalf("malicious counts differ: %d vs %d", len(am), len(bm))
	}
	for i := range am {
		if am[i] != bm[i] {
			sameSet = false
			break
		}
	}
	if sameSet {
		t.Error("different seeds chose the identical compromised subset (suspicious)")
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{KindSensor, KindBeacon, KindMalicious} {
		if k.String() == "" {
			t.Errorf("empty String for kind %d", k)
		}
	}
	if Kind(0).String() != "kind(0)" {
		t.Errorf("zero kind = %q", Kind(0).String())
	}
	if KindSensor.IsBeacon() || !KindBeacon.IsBeacon() || !KindMalicious.IsBeacon() {
		t.Error("IsBeacon wrong")
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	cfg := Paper()
	cfg.N = -1
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New(cfg)
}

func BenchmarkNewPaperDeployment(b *testing.B) {
	cfg := Paper()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		New(cfg)
	}
}
