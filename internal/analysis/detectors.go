package analysis

import "math"

// Closed-form per-exchange characteristics of the detector
// implementations in internal/core under the simulator's noise model:
//
//   - ranging error U ~ Uniform(-ε, ε) (phy's Config.RangeError), so the
//     distance residual of an attack signal with enlargement b is U + b;
//   - RTT jitter the sum of four independent per-hop uniform delays, so
//     the standardized RTT residual is q = √3·(W − 2) with W ~
//     Irwin-Hall(4) (propagation differences are ~2 cycles against a
//     ~250-cycle σ and are neglected).
//
// The bake-off runner and the regression suite compare measured
// detection rates against RevocationRate evaluated at the effective
// per-exchange probability P·catch, with catch from these forms.

// IrwinHall4CDF is the CDF of the sum of four independent Uniform(0,1)
// variables: F(x) = (1/4!) Σ_{k≤x} (-1)^k C(4,k) (x-k)^4.
func IrwinHall4CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 4 {
		return 1
	}
	binom := [5]float64{1, 4, 6, 4, 1}
	sum, sign := 0.0, 1.0
	for k := 0; float64(k) <= x && k < 5; k++ {
		d := x - float64(k)
		sum += sign * binom[k] * d * d * d * d
		sign = -sign
	}
	return sum / 24
}

// rttResidualCDF is P(q ≤ t) for the standardized RTT residual
// q = √3·(W − 2), W ~ Irwin-Hall(4).
func rttResidualCDF(t float64) float64 {
	return IrwinHall4CDF(2 + t/math.Sqrt(3))
}

// PaperCatchProb is the probability the paper's consistency check flags
// one attack signal with distance enlargement bias: P(|U + bias| > ε) =
// min(bias/2ε, 1) for bias ≥ 0. At the default 5ε enlargement the catch
// is certain; below 2ε the attacker starts slipping through.
func PaperCatchProb(bias, eps float64) float64 {
	p := math.Abs(bias) / (2 * eps)
	return math.Min(p, 1)
}

// MLCut is the maximum-likelihood detector's decision boundary on the
// distance residual for an assumed enlargement and prior log-ratio
// λ = ln(P(H0)/P(H1)): bias/2 + λσ²/bias with σ = ε/√3.
func MLCut(bias, lambda, eps float64) float64 {
	sigma := eps / math.Sqrt(3)
	return bias/2 + lambda*sigma*sigma/bias
}

// MLCatchProb is the probability the ML detector flags one attack signal
// with true enlargement bias, given its decision cut:
// P(U + bias > cut) with U ~ Uniform(-ε, ε).
func MLCatchProb(bias, eps, cut float64) float64 {
	p := (eps + bias - cut) / (2 * eps)
	return math.Min(math.Max(p, 0), 1)
}

// MahalanobisFlagProb is the probability the Mahalanobis detector
// returns a malicious verdict for one direct (non-replayed) signal with
// distance enlargement bias: P(x² + q² > T² and q ≤ T) with
// x = (U + bias)/σ_d, σ_d = ε/√3 (exchanges with q > T are attributed
// to local replay instead of the target). The uniform distance residual
// is integrated by midpoint quadrature; the RTT direction uses the exact
// Irwin-Hall(4) CDF. With bias = 0 this is the detector's per-exchange
// false-alert probability on benign signals.
func MahalanobisFlagProb(bias, eps, threshold float64) float64 {
	const panels = 4000
	sigmaD := eps / math.Sqrt(3)
	qAtMost := func(t float64) float64 { return rttResidualCDF(t) }
	total := 0.0
	for i := 0; i < panels; i++ {
		u := -eps + (float64(i)+0.5)*(2*eps/panels)
		x := (u + bias) / sigmaD
		s2 := threshold*threshold - x*x
		s := 0.0
		if s2 > 0 {
			s = math.Sqrt(s2)
		}
		// P(q < -s) + P(s < q ≤ T): below the ellipse's lower RTT edge
		// or between its upper edge and the replay-attribution line.
		total += qAtMost(-s) + qAtMost(threshold) - qAtMost(s)
	}
	return total / panels
}
