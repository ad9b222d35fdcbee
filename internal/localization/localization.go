// Package localization implements the location-discovery substrate the
// paper protects: distance-based multilateration (linear least squares
// with Gauss–Newton refinement), its LMS-robust variant, and iterative
// multi-tier localization with beacon promotion.
//
// A non-beacon node collects location references — (beacon location,
// measured distance) pairs — and estimates its own position as the point
// best satisfying the distance constraints. Malicious references corrupt
// the estimate, which is the attack the rest of this repository detects
// and removes.
package localization

import (
	"errors"
	"fmt"
	"math"

	"beaconsec/internal/geo"
)

// Reference is one location reference: the location a beacon declared and
// the distance measured from its beacon signal.
type Reference struct {
	Loc  geo.Point
	Dist float64
}

// Estimation errors.
var (
	// ErrTooFew is returned when fewer than three references are
	// available; two distances leave a two-point ambiguity.
	ErrTooFew = errors.New("localization: need at least 3 references")
	// ErrDegenerate is returned when the reference geometry is singular
	// (e.g. all beacons collinear).
	ErrDegenerate = errors.New("localization: degenerate reference geometry")
)

const (
	gaussNewtonIters = 25
	convergedStep    = 1e-6
)

// Multilaterate estimates a position from distance references: a linear
// least-squares seed (difference-of-circles linearization) refined by
// Gauss–Newton on the nonlinear residuals. This is the "mathematical
// solution that satisfies these constraints with minimum estimation
// error" of the paper's stage 2.
func Multilaterate(refs []Reference) (geo.Point, error) {
	if len(refs) < 3 {
		return geo.Point{}, fmt.Errorf("%w: have %d", ErrTooFew, len(refs))
	}
	seed, err := linearSeed(refs)
	if err != nil {
		return geo.Point{}, err
	}
	return refine(seed, refs), nil
}

// linearSeed subtracts the last circle equation from the others, yielding
// the linear system A [x y]^T = b, solved via 2x2 normal equations.
func linearSeed(refs []Reference) (geo.Point, error) {
	n := len(refs)
	last := refs[n-1]
	var a11, a12, a22, b1, b2 float64
	for _, r := range refs[:n-1] {
		ax := 2 * (last.Loc.X - r.Loc.X)
		ay := 2 * (last.Loc.Y - r.Loc.Y)
		rhs := r.Dist*r.Dist - last.Dist*last.Dist -
			r.Loc.X*r.Loc.X + last.Loc.X*last.Loc.X -
			r.Loc.Y*r.Loc.Y + last.Loc.Y*last.Loc.Y
		a11 += ax * ax
		a12 += ax * ay
		a22 += ay * ay
		b1 += ax * rhs
		b2 += ay * rhs
	}
	det := a11*a22 - a12*a12
	scale := a11 + a22
	if scale == 0 || math.Abs(det) < 1e-9*scale*scale {
		return geo.Point{}, ErrDegenerate
	}
	return geo.Point{
		X: (a22*b1 - a12*b2) / det,
		Y: (a11*b2 - a12*b1) / det,
	}, nil
}

// refine runs Gauss–Newton on f_i(p) = |p - loc_i| - dist_i.
func refine(p geo.Point, refs []Reference) geo.Point {
	for iter := 0; iter < gaussNewtonIters; iter++ {
		var jtj11, jtj12, jtj22, jtr1, jtr2 float64
		for _, r := range refs {
			dx := p.X - r.Loc.X
			dy := p.Y - r.Loc.Y
			d := math.Hypot(dx, dy)
			if d < 1e-9 {
				// At a beacon location the residual gradient is
				// undefined; nudge off it.
				dx, dy, d = 1e-6, 1e-6, math.Sqrt2*1e-6
			}
			jx := dx / d
			jy := dy / d
			res := d - r.Dist
			jtj11 += jx * jx
			jtj12 += jx * jy
			jtj22 += jy * jy
			jtr1 += jx * res
			jtr2 += jy * res
		}
		det := jtj11*jtj22 - jtj12*jtj12
		if math.Abs(det) < 1e-12 {
			return p
		}
		stepX := (jtj22*jtr1 - jtj12*jtr2) / det
		stepY := (jtj11*jtr2 - jtj12*jtr1) / det
		p.X -= stepX
		p.Y -= stepY
		if math.Abs(stepX)+math.Abs(stepY) < convergedStep {
			break
		}
	}
	return p
}

// RobustMultilaterate estimates a position while discarding inconsistent
// references, tolerating even *coordinated* malicious minorities: a
// least-median-of-squares search over reference triples picks the
// candidate position whose median residual is smallest, references whose
// residual against that candidate exceeds maxResidual are discarded, and
// the survivors are refit. It returns the estimate and the indices of the
// references kept.
//
// This is the §2.3 "constraints between estimated measurements and
// calculated measurements" applied at the solver: a promoted or
// compromised beacon whose declared position disagrees with the geometry
// of the honest majority is excluded from the fix. Correctness requires
// an honest majority; LMS's breakdown point is just under 50%.
func RobustMultilaterate(refs []Reference, maxResidual float64) (geo.Point, []int, error) {
	if maxResidual <= 0 {
		return geo.Point{}, nil, fmt.Errorf("localization: maxResidual %v must be positive", maxResidual)
	}
	if len(refs) < 3 {
		return geo.Point{}, nil, fmt.Errorf("%w: have %d", ErrTooFew, len(refs))
	}
	n := len(refs)
	best, err := Multilaterate(refs)
	if err != nil && n == 3 {
		return geo.Point{}, nil, err
	}
	bestMed := math.Inf(1)
	if err == nil {
		bestMed = medianResidual(best, refs)
	}
	// Exhaustive triples for the reference counts this system sees
	// (node neighborhoods, ≤ a few dozen); C(n,3) stays tractable.
	tri := make([]Reference, 3)
	for i := 0; i < n-2; i++ {
		for j := i + 1; j < n-1; j++ {
			for k := j + 1; k < n; k++ {
				tri[0], tri[1], tri[2] = refs[i], refs[j], refs[k]
				cand, err := Multilaterate(tri)
				if err != nil {
					continue
				}
				if med := medianResidual(cand, refs); med < bestMed {
					bestMed, best = med, cand
				}
			}
		}
	}
	if math.IsInf(bestMed, 1) {
		return geo.Point{}, nil, ErrDegenerate
	}
	// Keep the references consistent with the LMS candidate, refit.
	var kept []int
	var keptRefs []Reference
	for i, r := range refs {
		if math.Abs(best.Dist(r.Loc)-r.Dist) <= maxResidual {
			kept = append(kept, i)
			keptRefs = append(keptRefs, r)
		}
	}
	if len(keptRefs) < 3 {
		// Too few consistent references to refit; the LMS candidate is
		// the best available answer, with everything it agrees with.
		return best, kept, nil
	}
	refit, err := Multilaterate(keptRefs)
	if err != nil {
		return best, kept, nil
	}
	return refit, kept, nil
}

func medianResidual(p geo.Point, refs []Reference) float64 {
	res := make([]float64, len(refs))
	for i, r := range refs {
		res[i] = math.Abs(p.Dist(r.Loc) - r.Dist)
	}
	// Insertion sort: reference sets are small.
	for i := 1; i < len(res); i++ {
		for j := i; j > 0 && res[j-1] > res[j]; j-- {
			res[j-1], res[j] = res[j], res[j-1]
		}
	}
	return res[len(res)/2]
}
