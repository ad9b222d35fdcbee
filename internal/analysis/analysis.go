// Package analysis implements the paper's closed-form models (§2.3 and
// §3.2): the per-detector detection rate, the base-station revocation
// rate, the expected number of affected non-beacon nodes, the
// report-counter overflow probability used to choose τ, and the
// false-positive bound. The experiment harness plots these as the
// "theoretical result" series of Figures 5–10 and checks the full
// simulation against them in Figures 12–13.
//
// Notation (paper's):
//
//	P    probability a requester both hears a malicious signal from a
//	     malicious beacon and fails to filter it:
//	     P = (1-p_n)(1-p_w)(1-p_l)
//	m    detecting IDs per beacon node
//	P_r  probability one benign detecting node catches a malicious
//	     beacon: P_r = 1 - (1-P)^m
//	N, N_b, N_a   sensor nodes, beacon nodes, malicious beacon nodes
//	N_c  requesting nodes contacting a given malicious beacon
//	τ    report-counter cap; τ′ alert threshold
//	P_d  probability a malicious beacon is revoked
//	N′   expected non-beacon nodes accepting a malicious signal from an
//	     unrevoked malicious beacon
//	p_d  wormhole-detector detection rate; N_w wormholes between benign
//	     beacon pairs
package analysis

import (
	"fmt"
	"math"
)

// Strategy is the malicious beacon's behavior triple: the fraction of
// requesters given a normal signal (PN), convinced of a wormhole replay
// (PW), and convinced of a local replay (PL), applied as sequential
// independent choices.
type Strategy struct {
	PN, PW, PL float64
}

// Validate returns an error if any component is outside [0, 1].
func (s Strategy) Validate() error {
	for _, v := range []float64{s.PN, s.PW, s.PL} {
		if v < 0 || v > 1 || math.IsNaN(v) {
			return fmt.Errorf("analysis: strategy component %v outside [0,1]", v)
		}
	}
	return nil
}

// StrategyForP returns the canonical strategy realizing a given P by
// adjusting only p_n (no replay camouflage): the attacker sends malicious
// signals to a fraction P of requesters and normal signals to the rest.
func StrategyForP(p float64) Strategy {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("analysis: P %v outside [0,1]", p))
	}
	return Strategy{PN: 1 - p}
}

// DetectionRate returns P_r = 1 - (1-P)^m, the probability that a benign
// detecting node with m detecting IDs catches a malicious beacon (§2.3,
// Figure 5).
func DetectionRate(p float64, m int) float64 {
	if m <= 0 {
		return 0
	}
	return 1 - math.Pow(1-p, float64(m))
}

// Population holds the network-size parameters shared by the §3 formulas.
type Population struct {
	N  int // total sensor nodes
	Nb int // beacon nodes
	Na int // malicious beacon nodes
}

// BenignBeacons returns N_b - N_a.
func (pop Population) BenignBeacons() int { return pop.Nb - pop.Na }

// PaperPopulation is the reconstructed simulation population: 1,000
// nodes, 110 beacons of which 10 are compromised, so benign beacons are
// 10% of the network ((N_b-N_a)/N = 0.1 as the paper assumes).
func PaperPopulation() Population { return Population{N: 1000, Nb: 110, Na: 10} }

// AlertProb returns P_a: the probability that one (uniformly random)
// requester of a malicious beacon is a benign beacon node that reports an
// alert: P_a = (N_b - N_a) · P_r / N.
func AlertProb(p float64, m int, pop Population) float64 {
	return float64(pop.BenignBeacons()) * DetectionRate(p, m) / float64(pop.N)
}

// logChoose returns log C(n, k) via log-gamma.
func logChoose(n, k int) float64 {
	ln, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return ln - lk - lnk
}

// BinomPMF returns C(n,k) p^k (1-p)^(n-k), computed in log space so large
// n stays stable.
func BinomPMF(n int, p float64, k int) float64 {
	if k < 0 || k > n || n < 0 {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	logp := logChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(logp)
}

// BinomCDF returns P[X <= k] for X ~ Binomial(n, p).
func BinomCDF(n int, p float64, k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	sum := 0.0
	for i := 0; i <= k; i++ {
		sum += BinomPMF(n, p, i)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// RevocationRate returns P_d: the probability a malicious beacon
// contacted by nc requesting nodes is revoked, with alert threshold τ′
// (assuming τ is large enough that no alert is report-capped):
//
//	P_a = (N_b-N_a)·P_r/N,  P_d = 1 - Σ_{i=0}^{τ′} C(nc,i) P_a^i (1-P_a)^(nc-i)
//
// (§3.2, Figures 6 and 7.)
func RevocationRate(p float64, m, tauPrime, nc int, pop Population) float64 {
	pa := AlertProb(p, m, pop)
	return 1 - BinomCDF(nc, pa, tauPrime)
}

// AcceptAfterRevocation returns P″ = P (1 - P_d): the probability a
// non-beacon requester accepts a malicious signal from a malicious beacon
// that survives revocation.
func AcceptAfterRevocation(p float64, m, tauPrime, nc int, pop Population) float64 {
	return p * (1 - RevocationRate(p, m, tauPrime, nc, pop))
}

// AffectedNodes returns N′: the expected number of non-beacon nodes
// ultimately misled by one malicious beacon,
// N′ = P″ · N_c · (N - N_b)/N (§3.2, Figure 8).
func AffectedNodes(p float64, m, tauPrime, nc int, pop Population) float64 {
	return AcceptAfterRevocation(p, m, tauPrime, nc, pop) *
		float64(nc) * float64(pop.N-pop.Nb) / float64(pop.N)
}

// MaxAffected sweeps P over a fine grid and returns the attacker-optimal
// (max_P N′, argmax P) pair — "the attacker may adjust P to maximize N′"
// (Figure 9).
func MaxAffected(m, tauPrime, nc int, pop Population) (maxAffected, argP float64) {
	const steps = 400
	for i := 0; i <= steps; i++ {
		p := float64(i) / steps
		if n := AffectedNodes(p, m, tauPrime, nc, pop); n > maxAffected {
			maxAffected, argP = n, p
		}
	}
	return maxAffected, argP
}

// FalsePositiveBound returns N_f: the worst-case expected number of
// benign beacons revoked,
//
//	N_f = ((1-p_d)·N_w + N_a·(τ+1)) / (τ′+1)
//
// — undetected wormhole alerts plus colluding malicious reporters each
// spending their full report budget (§3.2).
func FalsePositiveBound(nw, na, tau, tauPrime int, pd float64) float64 {
	return ((1-pd)*float64(nw) + float64(na)*float64(tau+1)) / float64(tauPrime+1)
}

// ReportCounterParams collects the inputs of the report-counter overflow
// model (Figure 10): how likely a benign beacon's report counter is to
// exceed a candidate τ, which would silently discard its future alerts.
type ReportCounterParams struct {
	Pop      Population
	Nc       int     // requesting nodes per malicious beacon
	Nw       int     // wormholes between benign beacon pairs
	Pd       float64 // wormhole-detector rate p_d
	M        int     // detecting IDs
	P        float64 // attacker strategy P
	TauPrime int     // alert threshold τ′
	Tau      int     // report cap candidate τ (for N_f inside)
}

// ReportCounterExceedProb returns P_o: the probability that a benign
// beacon node's report counter exceeds tau. The counter increments once
// per malicious beacon it detects (still unrevoked) and once per
// wormhole-replay false alert it raises:
//
//	P_1 = (N_c/N)·P_r·(1-P_d)            per malicious beacon
//	P_2 = (2/(N_b-N_a))·(1-p_d)·(1 - N_f/(N_b-N_a))   per wormhole
//	P′(i) = Σ_{j+k=i} B(N_a,P_1;j)·B(N_w,P_2;k),  P_o = 1 - Σ_{i≤τ} P′(i)
func ReportCounterExceedProb(tau int, prm ReportCounterParams) float64 {
	pop := prm.Pop
	pr := DetectionRate(prm.P, prm.M)
	pd := RevocationRate(prm.P, prm.M, prm.TauPrime, prm.Nc, pop)
	p1 := float64(prm.Nc) / float64(pop.N) * pr * (1 - pd)

	benign := float64(pop.BenignBeacons())
	nf := FalsePositiveBound(prm.Nw, pop.Na, prm.Tau, prm.TauPrime, prm.Pd)
	frac := 1 - nf/benign
	if frac < 0 {
		frac = 0
	}
	p2 := 2 / benign * (1 - prm.Pd) * frac

	// P[total <= tau] by convolving the two independent binomials.
	total := 0.0
	for i := 0; i <= tau; i++ {
		for j := 0; j <= i && j <= pop.Na; j++ {
			k := i - j
			if k > prm.Nw {
				continue
			}
			total += BinomPMF(pop.Na, p1, j) * BinomPMF(prm.Nw, p2, k)
		}
	}
	if total > 1 {
		total = 1
	}
	return 1 - total
}
