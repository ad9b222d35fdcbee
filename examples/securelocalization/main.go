// Securelocalization demonstrates the paper's motivating claim end to
// end: compromised beacon nodes corrupt location discovery, and the
// detect-and-revoke defense restores it. It runs the same network twice —
// once defenseless, once with the full paper defense — and compares
// sensor localization error, then shows the underlying mechanism on a
// single hand-built multilateration.
package main

import (
	"fmt"
	"log"

	"beaconsec/internal/analysis"
	"beaconsec/internal/geo"
	"beaconsec/internal/localization"
	"beaconsec/internal/scenario"
)

func main() {
	// Part 1 — the micro view: one sensor, four references, one lie.
	fmt.Println("=== one corrupted reference skews multilateration ===")
	truth := geo.Point{X: 75, Y: 75}
	beacons := []geo.Point{{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 0, Y: 150}, {X: 150, Y: 150}}
	refs := make([]localization.Reference, len(beacons))
	for i, b := range beacons {
		refs[i] = localization.Reference{Loc: b, Dist: truth.Dist(b)}
	}
	clean, err := localization.Multilaterate(refs)
	if err != nil {
		log.Fatal(err)
	}
	refs[0].Dist += 50 // a compromised beacon enlarges its distance
	skewed, err := localization.Multilaterate(refs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("true position %v; clean estimate error %.2f ft; with one malicious reference %.1f ft\n\n",
		truth, clean.Dist(truth), skewed.Dist(truth))

	// Part 2 — the macro view: a 1,000-node network at P = 0.5.
	run := func(defended bool) *scenario.Result {
		cfg := scenario.Paper()
		cfg.Strategy = analysis.StrategyForP(0.5)
		cfg.Collude = false // isolate the localization effect
		cfg.CalibrationTrials = 1000
		if !defended {
			cfg.DisableRTTFilter = true
			cfg.WormholeRate = 0                // no wormhole filter
			cfg.Revoke.AlertThreshold = 1 << 20 // never revoke
		}
		res, err := scenario.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	defended := run(true)
	undefended := run(false)

	fmt.Println("=== paper-scale network, attacker at P = 0.5 ===")
	fmt.Printf("%-12s %10s %12s %14s %10s\n", "", "localized", "mean err", "misled/beacon", "revoked")
	fmt.Printf("%-12s %10d %9.1f ft %14.2f %10d\n", "undefended",
		undefended.Localized, undefended.LocErrMean, undefended.AffectedPerMalicious,
		undefended.RevokedMalicious)
	fmt.Printf("%-12s %10d %9.1f ft %14.2f %10d\n", "defended",
		defended.Localized, defended.LocErrMean, defended.AffectedPerMalicious,
		defended.RevokedMalicious)
	fmt.Println("\nThe defense revokes the compromised beacons before most sensors ask")
	fmt.Println("them for references, pulling the mean localization error back toward")
	fmt.Println("the 10 ft ranging-noise floor.")
}
