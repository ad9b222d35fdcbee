package localization

import (
	"fmt"

	"beaconsec/internal/geo"
	"beaconsec/internal/rng"
)

// This file implements iterative (multi-tier) localization — the paper's
// §2.3 extension scenario: "a non-beacon node may become a beacon node to
// supply location references once it discovers its own location.
// Localization error may accumulate ... however, there are still
// constraints between estimated measurements and calculated measurements
// ... we can still apply the proposed detector."
//
// Nodes outside direct beacon coverage localize from already-localized
// neighbors (Savvides et al.'s n-hop multilateration), and the
// distance-consistency check runs tier by tier with a slack that grows
// with the reference's accumulated uncertainty.

// A node estimates its position from at least minReferences references
// and uses at most maxReferences, the nearest by measured distance. The
// cap bounds the robust solver's subset search and matches real nodes,
// which stop collecting once they have enough references.
const (
	minReferences = 3
	maxReferences = 12
)

// IterativeConfig parameterizes multi-tier localization.
type IterativeConfig struct {
	// Range is the radio range: only neighbors within it supply
	// references.
	Range float64
	// MaxDistError is the per-measurement ranging error bound ε.
	MaxDistError float64
	// MaxRounds bounds promotion rounds; zero selects 8.
	MaxRounds int
	// DetectMalicious runs the consistency check against promoted
	// references: a reference whose measured distance disagrees with
	// the requester's running estimate by more than ε plus both sides'
	// accumulated uncertainty is discarded.
	DetectMalicious bool
	// Field, when non-empty, clamps estimates to the deployment region
	// (nodes know they are inside the field); it bounds the damage of
	// mirror-ambiguous fixes from one-sided reference geometry.
	Field geo.Rect
}

// IterativeResult reports a multi-tier localization pass.
type IterativeResult struct {
	// Estimate / Localized / Tier are indexed by node; Tier is 0 for
	// seed beacons, k for nodes localized in round k, -1 for never.
	Estimate  []geo.Point
	Localized []bool
	Tier      []int
	// Uncertainty is each node's accumulated error bound.
	Uncertainty []float64
	// Discarded counts references rejected by the consistency check.
	Discarded int
}

// MeanErrorByTier returns the mean true-position error per tier (tier 0
// is exact by construction).
func (r IterativeResult) MeanErrorByTier(truth []geo.Point) []float64 {
	maxTier := 0
	for _, tr := range r.Tier {
		if tr > maxTier {
			maxTier = tr
		}
	}
	sums := make([]float64, maxTier+1)
	counts := make([]int, maxTier+1)
	for i, tr := range r.Tier {
		if tr < 0 || !r.Localized[i] {
			continue
		}
		sums[tr] += r.Estimate[i].Dist(truth[i])
		counts[tr]++
	}
	out := make([]float64, maxTier+1)
	for t := range out {
		if counts[t] > 0 {
			out[t] = sums[t] / float64(counts[t])
		}
	}
	return out
}

// IterativeLocalize runs multi-tier localization over true node positions
// truth, where isBeacon marks tier-0 seed beacons (which know their exact
// locations) and liars marks nodes that, once promoted, declare positions
// offset by lieOffset. Distance measurements carry uniform error within
// ±cfg.MaxDistError, drawn from src.
func IterativeLocalize(truth []geo.Point, isBeacon []bool, liars []bool,
	lieOffset geo.Point, cfg IterativeConfig, src *rng.Source) IterativeResult {
	n := len(truth)
	if len(isBeacon) != n || len(liars) != n {
		panic(fmt.Sprintf("localization: length mismatch truth=%d beacons=%d liars=%d",
			n, len(isBeacon), len(liars)))
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 8
	}
	res := IterativeResult{
		Estimate:    make([]geo.Point, n),
		Localized:   make([]bool, n),
		Tier:        make([]int, n),
		Uncertainty: make([]float64, n),
	}
	for i := range truth {
		res.Tier[i] = -1
		if isBeacon[i] {
			res.Estimate[i] = truth[i]
			res.Localized[i] = true
			res.Tier[i] = 0
		}
	}

	declared := func(j int) geo.Point {
		if liars[j] {
			return res.Estimate[j].Add(lieOffset)
		}
		return res.Estimate[j]
	}

	for round := 1; round <= cfg.MaxRounds; round++ {
		progressed := false
		// Collect this round's promotions after scanning, so a round
		// uses only previous tiers (deterministic, order-independent).
		type pending struct {
			idx int
			est geo.Point
			unc float64
		}
		var newly []pending
		for i := range truth {
			if res.Localized[i] {
				continue
			}
			var refs []Reference
			var uncs []float64
			for j := range truth {
				if j == i || !res.Localized[j] {
					continue
				}
				d := truth[i].Dist(truth[j])
				if d > cfg.Range {
					continue
				}
				measured := d + src.Uniform(-cfg.MaxDistError, cfg.MaxDistError)
				refs = append(refs, Reference{Loc: declared(j), Dist: measured})
				uncs = append(uncs, res.Uncertainty[j])
			}
			if len(refs) < minReferences {
				continue
			}
			if len(refs) > maxReferences {
				// Keep the nearest references by measured distance
				// (selection sort prefix: reference counts are small).
				for a := 0; a < maxReferences; a++ {
					minIdx := a
					for b := a + 1; b < len(refs); b++ {
						if refs[b].Dist < refs[minIdx].Dist {
							minIdx = b
						}
					}
					refs[a], refs[minIdx] = refs[minIdx], refs[a]
					uncs[a], uncs[minIdx] = uncs[minIdx], uncs[a]
				}
				refs = refs[:maxReferences]
				uncs = uncs[:maxReferences]
			}
			var est geo.Point
			var err error
			worstUnc := 0.0
			if cfg.DetectMalicious {
				// §2.3: the consistency constraints still hold between
				// estimated measurements and calculated measurements;
				// trim references whose residual exceeds the ranging
				// error plus the tier's accumulated uncertainty.
				maxUnc := 0.0
				for _, u := range uncs {
					if u > maxUnc {
						maxUnc = u
					}
				}
				slack := 3*cfg.MaxDistError + 2*maxUnc
				var kept []int
				est, kept, err = RobustMultilaterate(refs, slack)
				if err == nil {
					res.Discarded += len(refs) - len(kept)
					for _, k := range kept {
						if uncs[k] > worstUnc {
							worstUnc = uncs[k]
						}
					}
				}
			} else {
				est, err = Multilaterate(refs)
				for _, u := range uncs {
					if u > worstUnc {
						worstUnc = u
					}
				}
			}
			if err != nil {
				continue
			}
			if cfg.Field.Width() > 0 && cfg.Field.Height() > 0 {
				est = cfg.Field.Clamp(est)
			}
			newly = append(newly, pending{
				idx: i,
				est: est,
				unc: worstUnc + cfg.MaxDistError,
			})
			progressed = true
		}
		for _, p := range newly {
			res.Estimate[p.idx] = p.est
			res.Localized[p.idx] = true
			res.Tier[p.idx] = round
			res.Uncertainty[p.idx] = p.unc
		}
		if !progressed {
			break
		}
	}
	return res
}
