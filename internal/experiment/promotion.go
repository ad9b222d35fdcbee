package experiment

import (
	"context"
	"fmt"

	"beaconsec/internal/geo"
	"beaconsec/internal/harness"
	"beaconsec/internal/localization"
	"beaconsec/internal/rng"
	"beaconsec/internal/textplot"
)

// promotionVariants are E3's three configurations. The two liar variants
// consume the topology stream identically, so for a given trial they see
// the same node placement and the same liar set — the detector's effect
// is isolated. The fields are exported because the matrix is part of the
// sweep's cache Config.
var promotionVariants = []struct {
	Label         string
	Liars, Detect bool
}{
	{"honest promotions", false, false},
	{"15% liars, no detector", true, false},
	{"15% liars, consistency detector", true, true},
}

// ExtraPromotion is extension experiment E3, the paper's §2.3 discussion
// made concrete: when localized non-beacon nodes are promoted to serve as
// beacons (n-hop multilateration), localization error accumulates tier by
// tier; lying promoted nodes amplify it; and the consistency constraints
// — applied as robust residual trimming — pull the error back down.
func ExtraPromotion(o Options) (Result, error) {
	nodes := 400
	trials := 3
	if o.Quick {
		nodes = 200
		trials = 1
	}
	// Sparse seed beacons scattered across the whole field: nodes near
	// several beacons localize in tier 1 with sound geometry; coverage
	// gaps fill through promoted tiers. Four rounds keep honest
	// geometric error well under the lie magnitude.
	field := geo.Square(900)
	cfg := localization.IterativeConfig{
		Range:        130,
		MaxDistError: 5,
		MaxRounds:    4,
		Field:        field,
	}

	// One job runs all three variants of one trial from the same
	// per-trial seed (paired comparison, as promotionVariants notes).
	rows, err := harness.Sweep(context.Background(), harness.Spec[[3][]float64]{
		Label:    "extra-promotion",
		Points:   []string{"tier-error"},
		Trials:   trials,
		Seed:     o.Seed,
		Workers:  o.Workers,
		Progress: o.Progress,
		Cache:    o.Cache,
		// The cache Config captures the full experiment surface: the
		// iterative localization config plus the variant matrix, which
		// otherwise lives only in code.
		Config: struct {
			Nodes, Trials int
			Field         geo.Rect
			Cfg           localization.IterativeConfig
			Variants      any
		}{nodes, trials, field, cfg, promotionVariants},
		Run: func(_ context.Context, job harness.Job) ([3][]float64, error) {
			var tiers [3][]float64
			for vi, v := range promotionVariants {
				src := rng.New(job.TrialSeed)
				truth := make([]geo.Point, nodes)
				isBeacon := make([]bool, nodes)
				liars := make([]bool, nodes)
				for i := range truth {
					truth[i] = geo.Point{X: src.Uniform(0, field.Width()), Y: src.Uniform(0, field.Height())}
					if src.Bool(0.08) {
						isBeacon[i] = true
					} else if v.Liars && src.Bool(0.15) {
						liars[i] = true
					}
				}
				c := cfg
				c.DetectMalicious = v.Detect
				res := localization.IterativeLocalize(truth, isBeacon, liars,
					geo.Point{X: 120, Y: -90}, c, src.Split("measure"))
				tiers[vi] = res.MeanErrorByTier(truth)
			}
			return tiers, nil
		},
	})
	if err != nil {
		return Result{}, err
	}

	res := Result{
		ID:     "extra-promotion",
		Title:  "E3: error accumulation across promotion tiers (§2.3)",
		XLabel: "tier",
		YLabel: "mean localization error (ft)",
	}
	var finals []float64
	for vi, v := range promotionVariants {
		// Average each tier over the trials that formed it (deep trials
		// can grow more tiers than shallow ones).
		var sums []float64
		var counts []int
		for _, tiers := range rows[0] {
			for tier, e := range tiers[vi] {
				if tier >= len(sums) {
					sums = append(sums, 0)
					counts = append(counts, 0)
				}
				sums[tier] += e
				counts[tier]++
			}
		}
		errs := make([]float64, len(sums))
		xs := make([]float64, len(sums))
		for tier := range sums {
			errs[tier] = sums[tier] / float64(counts[tier])
			xs[tier] = float64(tier)
		}
		res.Series = append(res.Series, textplot.Series{Label: v.Label, X: xs, Y: errs})
		if len(errs) > 0 {
			finals = append(finals, errs[len(errs)-1])
		} else {
			finals = append(finals, 0)
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"final-tier mean error: honest %.1f ft, liars undetected %.1f ft, with detector %.1f ft",
		finals[0], finals[1], finals[2]))
	return res, nil
}
