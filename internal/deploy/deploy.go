// Package deploy builds randomized network deployments: node populations,
// uniform placement in the sensing field, the beacon/sensor/malicious
// split, identity-space allocation, and neighbor queries. Every downstream
// experiment starts from a Deployment.
package deploy

import (
	"fmt"

	"beaconsec/internal/geo"
	"beaconsec/internal/ident"
	"beaconsec/internal/rng"
)

// Kind classifies a deployed node. Values start at one so the zero value
// is invalid.
type Kind int

// Node kinds.
const (
	KindSensor Kind = iota + 1
	KindBeacon
	KindMalicious // a compromised beacon node
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSensor:
		return "sensor"
	case KindBeacon:
		return "beacon"
	case KindMalicious:
		return "malicious-beacon"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// IsBeacon reports whether the node serves beacon signals (benign or
// malicious).
func (k Kind) IsBeacon() bool { return k == KindBeacon || k == KindMalicious }

// Config parameterizes a deployment. The zero value is not valid; start
// from Paper() and adjust.
type Config struct {
	// N is the total number of sensor nodes (beacons included).
	N int
	// Nb is the number of beacon nodes, of which Na are compromised.
	Nb int
	// Na is the number of compromised (malicious) beacon nodes.
	Na int
	// Field is the sensing field.
	Field geo.Rect
	// Range is the maximum radio communication range in feet.
	Range float64
	// DetectingIDs is the number of detecting pseudonyms per beacon
	// node (the paper's m).
	DetectingIDs int
	// Seed drives placement and the choice of which beacons are
	// compromised.
	Seed uint64
}

// Paper returns the reconstructed configuration of the paper's §4
// simulation: 1,000 nodes in a 1000×1000 ft field, 110 beacons with 10
// compromised, 150 ft range, m = 8.
func Paper() Config {
	return Config{
		N:            1000,
		Nb:           110,
		Na:           10,
		Field:        geo.Square(1000),
		Range:        150,
		DetectingIDs: 8,
		Seed:         1,
	}
}

// Validate returns an error for inconsistent configurations.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("deploy: N = %d must be positive", c.N)
	}
	if c.Nb < 0 || c.Nb > c.N {
		return fmt.Errorf("deploy: Nb = %d outside [0, %d]", c.Nb, c.N)
	}
	if c.Na < 0 || c.Na > c.Nb {
		return fmt.Errorf("deploy: Na = %d outside [0, %d]", c.Na, c.Nb)
	}
	if c.Field.Width() <= 0 || c.Field.Height() <= 0 {
		return fmt.Errorf("deploy: empty field %+v", c.Field)
	}
	if c.Range <= 0 {
		return fmt.Errorf("deploy: range %v must be positive", c.Range)
	}
	if c.DetectingIDs < 0 {
		return fmt.Errorf("deploy: DetectingIDs = %d must be >= 0", c.DetectingIDs)
	}
	space := ident.Space{NumBeacons: c.Nb, NumSensors: c.N - c.Nb, DetectingIDs: c.DetectingIDs}
	if !space.Valid() {
		return fmt.Errorf("deploy: identity space overflows NodeID range (%d ids)", space.Total())
	}
	return checkGridSize(int64(c.N), c.Field, c.Range)
}

// Node is one deployed node.
type Node struct {
	// Index is the node's position in Deployment.Nodes.
	Index int
	// ID is the node's primary identity. Beacons come first in both the
	// index and identity orders.
	ID ident.NodeID
	// Kind classifies the node.
	Kind Kind
	// Loc is the node's true location.
	Loc geo.Point
}

// Deployment is a concrete placement of a node population.
type Deployment struct {
	Cfg   Config
	Space ident.Space
	// Nodes lists all nodes: beacons at indices [0, Nb), sensors after.
	Nodes []Node
	grid  *geo.Grid // over Nodes' locations, cell = Range
}

// New builds a deployment from cfg with uniform random placement. It
// panics on invalid configuration (deployments are constructed from code,
// not user input, in every supported path — the CLIs validate first).
func New(cfg Config) *Deployment {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	src := rng.New(cfg.Seed)
	place := src.Split("placement")
	points := make([]geo.Point, cfg.N)
	for i := range points {
		points[i] = geo.Point{
			X: place.Uniform(cfg.Field.Min.X, cfg.Field.Max.X),
			Y: place.Uniform(cfg.Field.Min.Y, cfg.Field.Max.Y),
		}
	}
	// Which of the Nb beacons are compromised: a uniform subset.
	malicious := make(map[int]bool, cfg.Na)
	for _, idx := range src.Split("compromise").Perm(cfg.Nb)[:cfg.Na] {
		malicious[idx] = true
	}
	return build(cfg, points, malicious)
}

// NewManual builds a deployment with caller-chosen placement: locs[i] is
// node i's location (beacons occupy indices [0, Nb), sensors follow) and
// malicious selects which beacon indices are compromised. len(locs) must
// equal cfg.N and len(malicious) must equal cfg.Na. Experiments and tests
// use it for hand-crafted topologies.
func NewManual(cfg Config, locs []geo.Point, malicious []int) *Deployment {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if len(locs) != cfg.N {
		panic(fmt.Sprintf("deploy: %d locations for N = %d", len(locs), cfg.N))
	}
	if len(malicious) != cfg.Na {
		panic(fmt.Sprintf("deploy: %d malicious indices for Na = %d", len(malicious), cfg.Na))
	}
	malSet := make(map[int]bool, len(malicious))
	for _, i := range malicious {
		if i < 0 || i >= cfg.Nb {
			panic(fmt.Sprintf("deploy: malicious index %d outside beacon range [0,%d)", i, cfg.Nb))
		}
		if malSet[i] {
			panic(fmt.Sprintf("deploy: duplicate malicious index %d", i))
		}
		malSet[i] = true
	}
	points := append([]geo.Point(nil), locs...)
	return build(cfg, points, malSet)
}

func build(cfg Config, points []geo.Point, malicious map[int]bool) *Deployment {
	space := ident.Space{
		NumBeacons:   cfg.Nb,
		NumSensors:   cfg.N - cfg.Nb,
		DetectingIDs: cfg.DetectingIDs,
	}
	d := &Deployment{
		Cfg:   cfg,
		Space: space,
		Nodes: make([]Node, cfg.N),
		grid:  geo.NewGrid(cfg.Range),
	}
	for i := 0; i < cfg.N; i++ {
		n := Node{Index: i, Loc: points[i]}
		if i < cfg.Nb {
			n.ID = space.BeaconID(i)
			if malicious[i] {
				n.Kind = KindMalicious
			} else {
				n.Kind = KindBeacon
			}
		} else {
			n.ID = space.SensorID(i - cfg.Nb)
			n.Kind = KindSensor
		}
		d.Nodes[i] = n
		d.grid.Add(n.Loc) // grid index == node index
	}
	return d
}

// Neighbors appends to dst the indices of all nodes within radio range of
// node i (excluding i itself), in ascending index order. In range means
// a squared distance not above Range².
func (d *Deployment) Neighbors(i int, dst []int) []int {
	p, r := d.Nodes[i].Loc, d.Cfg.Range
	var buf [256]int32 // the candidates at the paper's density, on the stack
	for _, j := range d.grid.Candidates(p, r, buf[:0]) {
		if int(j) != i && d.Nodes[j].Loc.Dist2(p) <= r*r {
			dst = append(dst, int(j))
		}
	}
	return dst
}

// Beacons returns the indices of all beacon nodes (benign and malicious).
func (d *Deployment) Beacons() []int {
	out := make([]int, 0, d.Cfg.Nb)
	for i := 0; i < d.Cfg.Nb; i++ {
		out = append(out, i)
	}
	return out
}

// MaliciousBeacons returns the indices of compromised beacon nodes.
func (d *Deployment) MaliciousBeacons() []int {
	var out []int
	for i := 0; i < d.Cfg.Nb; i++ {
		if d.Nodes[i].Kind == KindMalicious {
			out = append(out, i)
		}
	}
	return out
}

// BenignBeacons returns the indices of uncompromised beacon nodes.
func (d *Deployment) BenignBeacons() []int {
	var out []int
	for i := 0; i < d.Cfg.Nb; i++ {
		if d.Nodes[i].Kind == KindBeacon {
			out = append(out, i)
		}
	}
	return out
}

// Sensors returns the indices of non-beacon nodes.
func (d *Deployment) Sensors() []int {
	out := make([]int, 0, d.Cfg.N-d.Cfg.Nb)
	for i := d.Cfg.Nb; i < d.Cfg.N; i++ {
		out = append(out, i)
	}
	return out
}

// AvgBeaconNeighbors returns the mean number of beacon nodes within range
// of a node — the emergent N_c scale of this deployment.
func (d *Deployment) AvgBeaconNeighbors() float64 {
	if len(d.Nodes) == 0 {
		return 0
	}
	var total int
	buf := make([]int, 0, 128)
	for i := range d.Nodes {
		buf = d.Neighbors(i, buf[:0])
		for _, j := range buf {
			if d.Nodes[j].Kind.IsBeacon() {
				total++
			}
		}
	}
	return float64(total) / float64(len(d.Nodes))
}
