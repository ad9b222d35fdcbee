// Revocation explores the paper's §3 threshold trade-off: the report cap
// τ bounds how much damage colluding malicious reporters can do, while
// the alert threshold τ′ sets how many independent accusations revoke a
// node. The example sweeps τ at fixed τ′ and prints the resulting
// operating points — the simulated version of the paper's Figure 14 ROC —
// then replays one revocation over the live TCP service (internal/revnet,
// the same machinery behind cmd/revoked).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"beaconsec/internal/analysis"
	"beaconsec/internal/crypto"
	"beaconsec/internal/geo"
	"beaconsec/internal/ident"
	"beaconsec/internal/revnet"
	"beaconsec/internal/revoke"
	"beaconsec/internal/scenario"
)

func main() {
	// A reduced network keeps the sweep fast; densities match the paper.
	base := scenario.Paper()
	base.Deploy.N = 500
	base.Deploy.Nb = 55
	base.Deploy.Na = 5
	base.Deploy.Field = geo.Square(710)
	base.Collude = true // the colluders are the interesting part here

	// The attacker picks the P that maximizes misled sensors for these
	// thresholds (the paper's assumption for Figure 14).
	pop := analysis.Population{N: base.Deploy.N, Nb: base.Deploy.Nb, Na: base.Deploy.Na}

	fmt.Println("=== threshold trade-off at tau' = 2 (colluding reporters) ===")
	fmt.Println("tau   detection  false-pos  collusion-bound  comment")
	for _, tau := range []int{1, 2, 4, 10} {
		cfg := base
		cfg.Revoke.ReportCap = tau
		cfg.Revoke.AlertThreshold = 2
		_, pStar := analysis.MaxAffected(cfg.Deploy.DetectingIDs, 2, 60, pop)
		cfg.Strategy = analysis.StrategyForP(pStar)
		cfg.Seed = uint64(100 + tau)

		res, err := scenario.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		bound := analysis.FalsePositiveBound(1, cfg.Deploy.Na, tau, 2, cfg.WormholeRate)
		comment := ""
		switch {
		case res.FalsePositiveRate > 0.15:
			comment = "collusion expensive: lower tau"
		case res.DetectionRate < 0.7:
			comment = "detection suffering: raise tau"
		default:
			comment = "workable operating point"
		}
		fmt.Printf("%3d   %8.2f  %9.3f  %15.1f  %s\n",
			tau, res.DetectionRate, res.FalsePositiveRate, bound, comment)
	}

	fmt.Println("\nThe paper's recommended pair is (tau=10, tau'=2), chosen so the")
	fmt.Println("probability of a benign beacon exhausting its report budget is ~0")
	fmt.Println("(Figure 10) while collusion damage stays bounded by Na(tau+1)/(tau'+1).")

	liveService()
}

// liveService runs the recommended thresholds against the networked base
// station: a revnet.Server on loopback, with each accuser delivering its
// alert over TCP as an authenticated uplink — what cmd/revoked does as a
// standalone daemon.
func liveService() {
	fmt.Println("\n=== the same revocation, over the wire (tau=10, tau'=2) ===")

	master := crypto.NewMaster([]byte("example-deployment"))
	srv, err := revnet.NewServer(revnet.ServerConfig{
		Revoke: revoke.Config{ReportCap: 10, AlertThreshold: 2},
		Master: master,
	})
	if err != nil {
		log.Fatal(err)
	}
	go srv.ListenAndServe("127.0.0.1:0")
	defer srv.Close()
	for srv.Addr() == nil { // wait for the listener to come up
		time.Sleep(time.Millisecond)
	}
	addr := srv.Addr().String()

	// Three independent detecting nodes accuse beacon 42; τ′=2 means the
	// third accusation tips it over the threshold.
	ctx := context.Background()
	const accused = ident.NodeID(42)
	for _, reporter := range []ident.NodeID{7, 8, 9} {
		c, err := revnet.NewClient(revnet.ClientConfig{
			Addr: addr,
			Self: reporter,
			Key:  master.BaseStationKey(reporter),
		})
		if err != nil {
			log.Fatal(err)
		}
		out, err := c.SendAlert(ctx, accused)
		c.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("node %d accuses %d over TCP: %v\n", reporter, accused, out)
	}

	// Any provisioned node can now query the verdict.
	q, err := revnet.NewClient(revnet.ClientConfig{
		Addr: addr,
		Self: 3,
		Key:  master.BaseStationKey(3),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer q.Close()
	revoked, err := q.Query(ctx, accused)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node 3 queries %d: revoked=%v\n", accused, revoked)
	fmt.Println("\nRun 'go run ./cmd/revoked -master SECRET' for the standalone daemon,")
	fmt.Println("with -status for a live JSON endpoint and -json for a shutdown snapshot.")
}
