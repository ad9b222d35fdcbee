// Package georoute implements greedy geographic forwarding (the core of
// GPSR, the paper's motivating application: "in geographical routing
// (e.g., GPSR), sensor nodes make routing decisions at least partially
// based on their own and their neighbors' locations").
//
// Forwarding decisions use the positions nodes *believe* (their
// localization estimates); packets propagate over the *true* radio
// connectivity. The gap between the two is exactly what a malicious
// beacon attack poisons — and what the paper's defense restores. The
// extra-routing experiment quantifies it as end-to-end delivery rate.
package georoute

import (
	"fmt"

	"beaconsec/internal/geo"
)

// Network is a static routing substrate: true positions fix connectivity;
// believed positions drive forwarding.
type Network struct {
	truth    []geo.Point
	believed []geo.Point
	adj      [][]int32
	rangeFt  float64
}

// New builds a network. believed[i] is node i's own position estimate;
// nodes advertise it to neighbors (GPSR's beaconing), so forwarding at
// node u compares believed positions of u's neighbors. A node with no
// estimate should carry its best guess — routing has nothing else.
func New(truth, believed []geo.Point, rangeFt float64) *Network {
	if len(truth) != len(believed) {
		panic(fmt.Sprintf("georoute: %d true vs %d believed positions", len(truth), len(believed)))
	}
	if rangeFt <= 0 {
		panic(fmt.Sprintf("georoute: non-positive range %v", rangeFt))
	}
	n := &Network{
		truth:    append([]geo.Point(nil), truth...),
		believed: append([]geo.Point(nil), believed...),
		adj:      make([][]int32, len(truth)),
		rangeFt:  rangeFt,
	}
	// Two nodes are neighbours when their squared distance is not
	// above rangeFt².
	g := geo.NewGrid(rangeFt)
	for _, p := range n.truth {
		g.Add(p)
	}
	var cands []int32
	for i, p := range n.truth {
		cands = g.Candidates(p, rangeFt, cands[:0])
		for _, j := range cands {
			if int(j) != i && n.truth[j].Dist2(p) <= rangeFt*rangeFt {
				n.adj[i] = append(n.adj[i], j)
			}
		}
	}
	return n
}

// Route is the outcome of one greedy forwarding attempt.
type Route struct {
	// Delivered reports whether the packet reached dst.
	Delivered bool
	// Hops is the path length taken (delivered or not).
	Hops int
	// Path lists the node indices visited, starting at src.
	Path []int
	// Reason explains a failure ("local-minimum", "ttl", "").
	Reason string
}

// Deliver greedily forwards a packet from src toward dst: each hop picks
// the neighbor whose *believed* position is closest to dst's believed
// position, advancing only if that improves on the current node (greedy
// mode of GPSR; perimeter mode is out of scope — a greedy failure counts
// as undelivered, which is the metric of interest). Delivery is declared
// when the packet reaches dst itself, regardless of coordinates: radios,
// not coordinates, receive packets.
func (n *Network) Deliver(src, dst int) Route {
	if src == dst {
		return Route{Delivered: true, Path: []int{src}}
	}
	ttl := 4 * len(n.truth)
	target := n.believed[dst]
	r := Route{Path: []int{src}}
	cur := src
	for r.Hops < ttl {
		if cur == dst {
			r.Delivered = true
			return r
		}
		best := -1
		bestDist := n.believed[cur].Dist2(target)
		for _, nb := range n.adj[cur] {
			if int(nb) == dst {
				// The destination itself is in radio range: done next hop.
				best = dst
				break
			}
			if d := n.believed[nb].Dist2(target); d < bestDist {
				bestDist = d
				best = int(nb)
			}
		}
		if best < 0 {
			r.Reason = "local-minimum"
			return r
		}
		cur = best
		r.Hops++
		r.Path = append(r.Path, cur)
	}
	r.Reason = "ttl"
	return r
}

// DeliveryRate attempts the given (src, dst) pairs and returns the
// fraction delivered plus the mean hop count of successful routes.
func (n *Network) DeliveryRate(pairs [][2]int) (rate, meanHops float64) {
	if len(pairs) == 0 {
		return 0, 0
	}
	delivered, hops := 0, 0
	for _, p := range pairs {
		r := n.Deliver(p[0], p[1])
		if r.Delivered {
			delivered++
			hops += r.Hops
		}
	}
	rate = float64(delivered) / float64(len(pairs))
	if delivered > 0 {
		meanHops = float64(hops) / float64(delivered)
	}
	return rate, meanHops
}
