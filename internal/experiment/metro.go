package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"beaconsec/internal/harness"
	"beaconsec/internal/metrics"
	"beaconsec/internal/scenario"
	"beaconsec/internal/textplot"
)

// metroSizes are the population points the metro runner sweeps. The full
// set tops out at 50k nodes — large enough that the standing event
// population is tens of thousands, small enough for a figure run; the
// 100k–1M regime lives in the benchmarks
// (BenchmarkSchedulerWheelFireMillion, BenchmarkDeployMetro*,
// BenchmarkRunMetroWorkers) and results/BENCH_*_metro.json /
// BENCH_*_parallel.json.
func metroSizes(o Options) []int64 {
	if o.Quick {
		return []int64{2_000, 5_000}
	}
	return []int64{5_000, 20_000, 50_000}
}

// metroWorkers is the shard count of the parallel identity leg:
// deliberately more shards than a small CI box has cores, so the sharded
// kernel is exercised (and its identity contract enforced) even on one
// CPU. Identity-pinned fields are byte-identical at any shard count.
const metroWorkers = 4

// ExtraMetro regenerates the metro-scale extension experiment: for each
// population it runs the streamed probe scenario on one shard and on
// metroWorkers shards, errors if the sharded run diverges in any
// identity-pinned field (the kernel's contract, enforced on every figure
// regeneration, not just in tests), and reports the deterministic outcome
// curves of the one-shard run. Wall-clock throughput and the execution
// environment are recorded in the notes only — they vary by machine, so
// they must never enter the series a golden file might pin.
func ExtraMetro(o Options) (Result, error) {
	ctx := context.Background()
	sizes := metroSizes(o)
	res := Result{
		ID:     "extra-metro",
		Title:  "E6: metro scale — streamed scenarios at 2k-50k nodes, one shard vs many",
		XLabel: "nodes",
		YLabel: "rate / normalized count",
	}
	xs := make([]float64, len(sizes))
	flagRate := make([]float64, len(sizes))
	timeoutRate := make([]float64, len(sizes))
	pendingPerNode := make([]float64, len(sizes))
	depthP99 := make([]float64, len(sizes))
	start := time.Now()
	for i, n := range sizes {
		cfg := scenario.MetroPaper(n, o.Seed)

		cfg.Workers = 1
		oneStart := time.Now()
		one, err := scenario.RunMetro(ctx, cfg)
		if err != nil {
			return Result{}, fmt.Errorf("metro %d nodes (K=1): %w", n, err)
		}
		oneWall := time.Since(oneStart)

		cfg.Workers = metroWorkers
		k := len(cfg.Deploy.ShardRanges(metroWorkers))
		parStart := time.Now()
		par, err := scenario.RunMetro(ctx, cfg)
		if err != nil {
			return Result{}, fmt.Errorf("metro %d nodes (K=%d): %w", n, k, err)
		}
		parWall := time.Since(parStart)
		pb, _ := json.Marshal(par.Identity())
		ob, _ := json.Marshal(one.Identity())
		if string(pb) != string(ob) {
			return Result{}, fmt.Errorf(
				"metro %d nodes: K=%d diverged from K=1 in identity-pinned fields\nK=1: %s\nK=%d: %s",
				n, k, ob, k, pb)
		}

		xs[i] = float64(n)
		flagRate[i] = one.FlagRate
		timeoutRate[i] = float64(one.Timeouts) / float64(one.Probes)
		pendingPerNode[i] = float64(one.Sim.MaxPending) / float64(n)
		depthP99[i] = one.QueueDepth.Quantile(0.99) / float64(n)

		res.Notes = append(res.Notes, fmt.Sprintf(
			"%d nodes: %d events, max pending %d; wall-clock %.0fms at K=1 vs %.0fms at K=%d (%.2fx, machine-dependent), identity-pinned fields byte-identical",
			n, one.Sim.Events, one.Sim.MaxPending,
			float64(oneWall.Milliseconds()), float64(parWall.Milliseconds()), k,
			oneWall.Seconds()/parWall.Seconds()))

		if o.Progress != nil {
			o.Progress(harness.Progress{Done: i + 1, Total: len(sizes), Elapsed: time.Since(start)})
		}
	}
	res.Series = []textplot.Series{
		{Label: "malicious flag rate", X: xs, Y: flagRate},
		{Label: "timeout rate", X: xs, Y: timeoutRate},
		{Label: "max pending / nodes", X: xs, Y: pendingPerNode},
		{Label: "p99 queue depth / nodes", X: xs, Y: depthP99},
	}
	env := metrics.CaptureEnv()
	res.Notes = append(res.Notes,
		fmt.Sprintf("sharded kernel (-metro-workers %d) identity-pinned fields byte-identical to K=1 at every size (checked this run)", metroWorkers),
		"memory-bounded: deployment streamed, per-node results never retained",
		fmt.Sprintf("env: %s %s/%s, GOMAXPROCS=%d of %d CPUs (scaling numbers are meaningless without this)",
			env.GoVersion, env.GOOS, env.GOARCH, env.GOMAXPROCS, env.NumCPU))
	return res, nil
}
