// Replayfilter walks through the paper's §2 detector suite step by step:
// calibrate the round-trip-time distribution (Figure 4), then feed the
// detector the four kinds of beacon exchange it must tell apart —
// benign, distance-manipulated (attack), wormhole-replayed, and locally
// replayed — and show the verdict each one earns.
package main

import (
	"fmt"
	"log"

	"beaconsec/internal/core"
	"beaconsec/internal/geo"
)

func main() {
	// Step 1 — calibrate: measure RTT = (t4-t1) - (t3-t2) over 10,000
	// benign exchanges on the simulated MICA2 radio stack.
	cal, err := core.CalibrateRTT(10000, 42, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== RTT calibration (Figure 4) ===")
	fmt.Printf("x_min = %.0f cycles, x_max = %.0f cycles, spread = %.2f bit-times\n",
		cal.XMin(), cal.XMax(), cal.SpreadBits())
	fmt.Printf("local-replay threshold = %.0f cycles\n\n", cal.Threshold())

	// Step 2 — configure the detector: maximum ranging error 10 ft,
	// radio range 150 ft, and the calibrated threshold.
	det := core.Config{
		MaxDistError: 10,
		MaxRTT:       cal.Threshold(),
		Range:        150,
	}

	// The detecting beacon node sits at the origin and knows it.
	me := geo.Point{X: 0, Y: 0}
	typicalRTT := cal.Quantile(0.5)

	cases := []struct {
		name string
		obs  core.Observation
	}{
		{
			"benign neighbor at (100,0), honest signal",
			core.Observation{
				OwnLoc: me, OwnKnown: true,
				Claimed:      geo.Point{X: 100, Y: 0},
				MeasuredDist: 103, // within the ±10 ft ranging error
				RTT:          typicalRTT,
			},
		},
		{
			"compromised beacon manipulating transmit power (+50 ft bias)",
			core.Observation{
				OwnLoc: me, OwnKnown: true,
				Claimed:      geo.Point{X: 100, Y: 0},
				MeasuredDist: 150, // enlarged: would corrupt localization
				RTT:          typicalRTT,
			},
		},
		{
			"far beacon's signal replayed through a wormhole (detector fired)",
			core.Observation{
				OwnLoc: me, OwnKnown: true,
				Claimed:          geo.Point{X: 700, Y: 600}, // beyond range
				MeasuredDist:     90,                        // distance to the tunnel exit
				RTT:              typicalRTT,                // analog tunnel: no extra delay
				WormholeDetected: true,
			},
		},
		{
			"neighbor's signal recorded and replayed by a local attacker",
			core.Observation{
				OwnLoc: me, OwnKnown: true,
				Claimed:      geo.Point{X: 100, Y: 0},
				MeasuredDist: 60,                 // distance to the attacker, not the beacon
				RTT:          typicalRTT + 49152, // one 16-byte packet of delay
			},
		},
	}

	fmt.Println("=== detecting-node pipeline (§2.1–2.2) ===")
	for _, c := range cases {
		v := det.EvaluateDetector(c.obs)
		fmt.Printf("%-62s -> %v", c.name, v)
		switch {
		case v.Alertable():
			fmt.Print("  [report to base station]")
		case !v.Accepted():
			fmt.Print("  [discard, no alert: avoids a false positive]")
		}
		fmt.Println()
	}

	// Step 3 — the same signals at a non-beacon sensor, which does not
	// know its own location and so cannot run the consistency check: it
	// still filters both replay classes.
	fmt.Println("\n=== sensor-node filter (no own location) ===")
	for _, c := range cases {
		obs := c.obs
		obs.OwnKnown = false
		v := det.EvaluateSensor(obs)
		use := "use as location reference"
		if !v.Accepted() {
			use = "discard"
		}
		fmt.Printf("%-62s -> %v (%s)\n", c.name, v, use)
	}
}
