package experiment

import (
	"fmt"

	"beaconsec/internal/geo"
	"beaconsec/internal/georoute"
	"beaconsec/internal/harness"
	"beaconsec/internal/rng"
	"beaconsec/internal/scenario"
	"beaconsec/internal/textplot"
)

// ExtraRouting is extension experiment E5: the paper's opening motivation
// measured end to end. Geographic routing (GPSR-style greedy forwarding)
// runs on the positions sensors *believe*; a malicious-beacon attack
// poisons those positions, and the detect-and-revoke defense restores
// them. The metric is end-to-end delivery rate over random node pairs.
func ExtraRouting(o Options) (Result, error) {
	ps := []float64{0.2, 0.5}
	trials := 2
	if o.Quick {
		ps = []float64{0.5}
		trials = 1
	}

	// The two variants of a job also route the same source/destination
	// pairs.
	defY, undefY, err := pairedSweep(o, "extra-routing", ps, trials,
		func(res *scenario.Result, cfg scenario.Config, job harness.Job) float64 {
			return routeOnEstimates(res, cfg, job.TrialSeed)
		})
	if err != nil {
		return Result{}, err
	}
	res := Result{
		ID:     "extra-routing",
		Title:  "E5: geographic-routing delivery rate on believed positions",
		XLabel: "P",
		YLabel: "delivery rate",
		Series: []textplot.Series{
			{Label: "defended (detect+revoke)", X: ps, Y: defY},
			{Label: "undefended", X: ps, Y: undefY},
		},
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"at P=%.1f: delivery %.2f defended vs %.2f undefended — corrupted positions break greedy forwarding",
		ps[len(ps)-1], defY[len(defY)-1], undefY[len(undefY)-1]))
	return res, nil
}

// routeOnEstimates builds the routing substrate from a finished
// simulation: true positions from the deployment, believed positions from
// each sensor's localization outcome. Sensors that failed to localize do
// not participate — a node without a position cannot make or appear in
// geographic forwarding decisions (GPSR's requirement).
func routeOnEstimates(res *scenario.Result, cfg scenario.Config, seed uint64) float64 {
	var truth, believed []geo.Point
	add := func(tru, bel geo.Point) {
		truth = append(truth, tru)
		believed = append(believed, bel)
	}
	for _, s := range res.Sensors() {
		est, err := s.Localize()
		if err != nil {
			continue
		}
		add(s.TrueLoc(), est)
	}
	// Beacons participate in forwarding with their true (known)
	// positions.
	for _, b := range res.Beacons() {
		add(b.TrueLoc(), b.TrueLoc())
	}
	net := georoute.New(truth, believed, cfg.Deploy.Range)
	src := rng.New(seed ^ 0x9047E)
	pairs := make([][2]int, 300)
	for i := range pairs {
		pairs[i] = [2]int{src.Intn(len(truth)), src.Intn(len(truth))}
	}
	rate, _ := net.DeliveryRate(pairs)
	return rate
}
