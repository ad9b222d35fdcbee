package experiment

import "testing"

// benchSweepWorkers regenerates the Quick fig12 sweep — the repo's
// canonical simulation-backed Monte Carlo workload — at a fixed worker
// count, to measure what the trial harness's parallelism buys.
func benchSweepWorkers(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := Fig12(Options{Quick: true, Seed: uint64(i + 1), Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
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
