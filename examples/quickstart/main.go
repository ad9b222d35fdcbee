// Quickstart: run the paper's evaluation scenario — a 1,000-node network
// with 110 beacon nodes of which 10 are compromised — and print how the
// defense fared: how many malicious beacons were detected and revoked,
// what the attack cost the network, and how accurately sensors localized.
package main

import (
	"fmt"
	"log"

	"beaconsec/internal/analysis"
	"beaconsec/internal/scenario"
)

func main() {
	cfg := scenario.Paper()
	// The attacker sends misleading beacon signals to 20% of requesters
	// and behaves normally for the rest (the paper's P = 0.2 operating
	// point).
	cfg.Strategy = analysis.StrategyForP(0.2)

	res, err := scenario.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== secure location discovery: paper scenario ===")
	fmt.Printf("malicious beacons revoked: %d/%d (detection rate %.0f%%)\n",
		res.RevokedMalicious, cfg.Deploy.Na, 100*res.DetectionRate)
	fmt.Printf("benign beacons lost to collusion + wormhole: %d (FPR %.1f%%)\n",
		res.RevokedBenign, 100*res.FalsePositiveRate)
	fmt.Printf("sensors still misled per surviving malicious beacon: %.2f\n",
		res.AffectedPerMalicious)
	fmt.Printf("sensors localized: %d, mean error %.1f ft\n",
		res.Localized, res.LocErrMean)

	// The closed-form §3.2 prediction at the measured neighborhood size,
	// for comparison.
	pop := analysis.PaperPopulation()
	theory := analysis.RevocationRate(0.2, cfg.Deploy.DetectingIDs, cfg.Revoke.AlertThreshold, int(res.AvgNc), pop)
	fmt.Printf("theoretical detection rate at Nc=%.0f: %.0f%%\n", res.AvgNc, 100*theory)
}
