// Benchmarks regenerating every figure of the paper's evaluation, plus
// the substrate micro-benchmarks a performance-conscious user cares
// about. Each BenchmarkFigNN target runs the same code path as
// cmd/figures for that figure, in quick mode so a full -bench=. pass
// stays tractable; run cmd/figures (without -quick) for full-fidelity
// reproduction.
package beaconsec_test

import (
	"testing"

	"beaconsec"
	"beaconsec/internal/experiment"
)

// runFigure runs the registered figure id with o, failing b on an
// unknown ID or a run error.
func runFigure(b *testing.B, id string, o experiment.Options) experiment.Result {
	b.Helper()
	r, ok := experiment.ByID(id)
	if !ok {
		b.Fatalf("unknown figure %q", id)
	}
	res, err := r.Run(o)
	if err != nil {
		b.Fatalf("%s: %v", id, err)
	}
	return res
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res := runFigure(b, id, experiment.Options{Quick: true, Seed: uint64(i + 1)})
		if len(res.Series) == 0 {
			b.Fatalf("%s produced no series", id)
		}
	}
}

// benchSweepWorkers regenerates the Quick fig12 sweep — the repo's
// canonical simulation-backed Monte Carlo workload — at a fixed worker
// count, to measure what the trial harness's parallelism buys.
func benchSweepWorkers(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res := runFigure(b, "fig12", experiment.Options{Quick: true, Seed: uint64(i + 1), Workers: workers})
		if len(res.Series) == 0 {
			b.Fatal("fig12 produced no series")
		}
	}
}

// BenchmarkSweepSerial runs the fig12 sweep on a single harness worker.
func BenchmarkSweepSerial(b *testing.B) { benchSweepWorkers(b, 1) }

// BenchmarkSweepParallel runs the same sweep with one worker per
// available CPU; the output is byte-identical to the serial run.
func BenchmarkSweepParallel(b *testing.B) { benchSweepWorkers(b, 0) }

// BenchmarkMetricsOverhead measures the instrumented fig12 sweep — the
// same workload BenchmarkSweepSerial timed before the metrics layer
// existed — so the delta against the recorded pre-metrics baseline in
// EXPERIMENTS.md is the full cost of counter increments, phase spans,
// and per-run aggregation. The histogram fast path (nil receiver) and
// plain uint64 counters are expected to keep that delta within run
// noise.
func BenchmarkMetricsOverhead(b *testing.B) {
	b.ReportAllocs()
	benchSweepWorkers(b, 1)
}

// BenchmarkFig04RTTCDF regenerates Figure 4: the empirical no-attack RTT
// distribution on the simulated MICA2 radio stack.
func BenchmarkFig04RTTCDF(b *testing.B) { benchFigure(b, "fig04") }

// BenchmarkFig05DetectionRate regenerates Figure 5: P_r vs P for
// m ∈ {1,2,4,8}.
func BenchmarkFig05DetectionRate(b *testing.B) { benchFigure(b, "fig05") }

// BenchmarkFig06aRevocationRate regenerates Figure 6(a): P_d vs P across
// alert thresholds.
func BenchmarkFig06aRevocationRate(b *testing.B) { benchFigure(b, "fig06a") }

// BenchmarkFig06bRevocationRate regenerates Figure 6(b): P_d vs P across
// detecting-ID counts.
func BenchmarkFig06bRevocationRate(b *testing.B) { benchFigure(b, "fig06b") }

// BenchmarkFig07RevocationVsNc regenerates Figure 7: P_d vs the number of
// requesting nodes.
func BenchmarkFig07RevocationVsNc(b *testing.B) { benchFigure(b, "fig07") }

// BenchmarkFig08Affected regenerates Figure 8: N′ vs P across (τ′, m).
func BenchmarkFig08Affected(b *testing.B) { benchFigure(b, "fig08") }

// BenchmarkFig09MaxAffected regenerates Figure 9: attacker-optimal N′ vs
// N_c.
func BenchmarkFig09MaxAffected(b *testing.B) { benchFigure(b, "fig09") }

// BenchmarkFig10ReportCounter regenerates Figure 10: report-counter
// overflow probability vs τ.
func BenchmarkFig10ReportCounter(b *testing.B) { benchFigure(b, "fig10") }

// BenchmarkFig11Deployment regenerates Figure 11: the beacon deployment
// scatter.
func BenchmarkFig11Deployment(b *testing.B) { benchFigure(b, "fig11") }

// BenchmarkFig12SimDetection regenerates Figure 12: full-simulation
// detection rate against theory across P.
func BenchmarkFig12SimDetection(b *testing.B) { benchFigure(b, "fig12") }

// BenchmarkFig13SimAffected regenerates Figure 13: full-simulation N′
// against theory across P.
func BenchmarkFig13SimAffected(b *testing.B) { benchFigure(b, "fig13") }

// BenchmarkFig14ROC regenerates Figure 14: ROC points over (τ, τ′, N_a)
// with colluding reporters.
func BenchmarkFig14ROC(b *testing.B) { benchFigure(b, "fig14") }

// BenchmarkExtraLocalizationImpact regenerates E1: localization error
// with vs without the defense.
func BenchmarkExtraLocalizationImpact(b *testing.B) { benchFigure(b, "extra-localization") }

// BenchmarkExtraAblation regenerates E2: false-alert counts with each
// replay filter disabled.
func BenchmarkExtraAblation(b *testing.B) { benchFigure(b, "extra-ablation") }

// BenchmarkScenarioPaperScale runs one full paper-scale simulation per
// iteration — the headline end-to-end cost.
func BenchmarkScenarioPaperScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := beaconsec.PaperScenario()
		cfg.Seed = uint64(i + 1)
		cfg.CalibrationTrials = 500
		if _, err := beaconsec.RunScenario(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalibrateRTT10k is the Figure 4 measurement at full paper
// fidelity (10,000 exchanges).
func BenchmarkCalibrateRTT10k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cal := beaconsec.CalibrateRTT(10000, uint64(i+1))
		if cal.SpreadBits() <= 0 {
			b.Fatal("degenerate calibration")
		}
	}
}

// BenchmarkMultilaterate measures the sensor-side position solve.
func BenchmarkMultilaterate(b *testing.B) {
	truth := beaconsec.Point{X: 60, Y: 45}
	beacons := []beaconsec.Point{
		{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 0, Y: 150},
		{X: 150, Y: 150}, {X: 75, Y: 75}, {X: 30, Y: 120},
	}
	refs := make([]beaconsec.Reference, len(beacons))
	for i, loc := range beacons {
		refs[i] = beaconsec.Reference{Loc: loc, Dist: truth.Dist(loc)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := beaconsec.Multilaterate(refs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtraPromotion regenerates E3: multi-tier promotion error
// accumulation.
func BenchmarkExtraPromotion(b *testing.B) { benchFigure(b, "extra-promotion") }

// BenchmarkExtraDistributed regenerates E4: base-station-free revocation
// vs the centralized scheme.
func BenchmarkExtraDistributed(b *testing.B) { benchFigure(b, "extra-distributed") }

// BenchmarkExtraRouting regenerates E5: geographic-routing delivery rate
// on believed positions.
func BenchmarkExtraRouting(b *testing.B) { benchFigure(b, "extra-routing") }
