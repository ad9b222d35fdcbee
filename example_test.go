package beaconsec_test

import (
	"fmt"

	"beaconsec"
)

// ExampleDetectorConfig_EvaluateDetector shows the §2 detecting-node
// pipeline classifying the four kinds of beacon exchange.
func ExampleDetectorConfig_EvaluateDetector() {
	cal := beaconsec.CalibrateRTT(2000, 1)
	det := beaconsec.DetectorConfig{
		MaxDistError: 10,
		MaxRTT:       cal.Threshold(),
		Range:        150,
	}
	me := beaconsec.Point{X: 0, Y: 0}
	rtt := cal.Quantile(0.5)

	benign := beaconsec.Observation{
		OwnLoc: me, OwnKnown: true,
		Claimed: beaconsec.Point{X: 100, Y: 0}, MeasuredDist: 104, RTT: rtt,
	}
	attack := benign
	attack.MeasuredDist = 145 // transmit-power manipulation
	replayed := benign
	replayed.RTT = rtt + 50000 // one packet of store-and-forward delay

	fmt.Println(det.EvaluateDetector(benign))
	fmt.Println(det.EvaluateDetector(attack))
	fmt.Println(det.EvaluateDetector(replayed))
	// Output:
	// benign
	// malicious
	// local-replay
}

// ExampleMultilaterate localizes a node from three beacon references.
func ExampleMultilaterate() {
	truth := beaconsec.Point{X: 40, Y: 35}
	beacons := []beaconsec.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 50, Y: 90}}
	refs := make([]beaconsec.Reference, len(beacons))
	for i, b := range beacons {
		refs[i] = beaconsec.Reference{Loc: b, Dist: truth.Dist(b)}
	}
	est, _ := beaconsec.Multilaterate(refs)
	fmt.Printf("(%.0f, %.0f)\n", est.X, est.Y)
	// Output:
	// (40, 35)
}

// ExampleFalsePositiveBound evaluates the §3.2 collusion damage bound at
// the paper's recommended thresholds.
func ExampleFalsePositiveBound() {
	nf := beaconsec.FalsePositiveBound(10, 10, 10, 2, 0.9)
	fmt.Printf("N_f = %.1f benign beacons (worst case)\n", nf)
	// Output:
	// N_f = 37.0 benign beacons (worst case)
}
