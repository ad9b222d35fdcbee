package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"beaconsec/internal/metrics"
	"beaconsec/internal/sim"
)

// metroHeapIdentityPath is the MetroIdentity of MetroPaper(10_000, 11)
// as the serial kernel produced it on the binary-heap queue, before the
// timing wheel became the only queue.
var metroHeapIdentityPath = filepath.Join("..", "..", "results", "golden", "metro_10k_seed11_heap_identity.json")

// TestRunMetroWorkerInvariance is the kernel's property test: every
// identity-pinned field of MetroResult (the MetroIdentity projection) is
// byte-identical across worker counts. The wheel subtest compares live
// runs on the production queue; the heap subtest compares them with the
// committed output of the retired heap queue. CI runs this under -race,
// so it doubles as the data-race check on the sharded kernel.
func TestRunMetroWorkerInvariance(t *testing.T) {
	t.Run("wheel", func(t *testing.T) {
		cfg := MetroPaper(metroN(t), 11)
		one, err := RunMetro(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(one.Identity())
		for _, w := range []int{2, 3, runtime.NumCPU()} {
			cfg.Workers = w
			par, err := RunMetro(context.Background(), cfg)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			got, _ := json.Marshal(par.Identity())
			if string(got) != string(want) {
				t.Errorf("workers=%d diverged from K=1 in identity-pinned fields:\nK=1:   %s\nK=%d: %s",
					w, want, w, got)
			}
			// The per-shard instrumentation still has to account for
			// the same workload: shard-local high-water marks can only
			// shrink, never exceed the K=1 standing population, and the
			// depth histogram must record every schedule exactly once
			// across shards.
			if par.Sim.MaxPending > one.Sim.MaxPending {
				t.Errorf("workers=%d: MaxPending %d exceeds K=1 %d",
					w, par.Sim.MaxPending, one.Sim.MaxPending)
			}
			if par.QueueDepth.Count != one.QueueDepth.Count {
				t.Errorf("workers=%d: depth observations %d, K=1 %d",
					w, par.QueueDepth.Count, one.QueueDepth.Count)
			}
		}
	})
	t.Run("heap", func(t *testing.T) {
		raw, err := os.ReadFile(metroHeapIdentityPath)
		if err != nil {
			t.Fatalf("heap identity missing: %v", err)
		}
		var ref MetroIdentity
		if err := json.Unmarshal(raw, &ref); err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(ref)
		cfg := MetroPaper(10_000, 11)
		for _, w := range []int{1, 2, 3, runtime.NumCPU()} {
			cfg.Workers = w
			res, err := RunMetro(context.Background(), cfg)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			got, _ := json.Marshal(res.Identity())
			if string(got) != string(want) {
				t.Errorf("workers=%d diverged from the heap queue's identity:\nheap: %s\ngot:  %s",
					w, want, got)
			}
		}
	})
}

// TestMetroResultMerge pins the shard merge: counters and histogram
// observations add, and MaxPending and VirtualCycles keep the larger
// shard's value.
func TestMetroResultMerge(t *testing.T) {
	shard := func(n int64, clock uint64) *MetroResult {
		r := &MetroResult{Probes: n, Replies: n, Timeouts: n, MaliciousProbes: n,
			FlaggedMalicious: n, FlaggedBenign: n,
			Sim:        sim.Stats{Events: uint64(n), Scheduled: uint64(n), Cancelled: uint64(n), MaxPending: n, VirtualCycles: clock},
			QueueDepth: sim.DepthHistogram(),
			RTT:        metrics.NewHistogram(1, 2),
		}
		r.QueueDepth.Observe(float64(n))
		r.RTT.Observe(1)
		return r
	}
	r := shard(3, 100)
	r.merge(shard(5, 40))
	for _, c := range []int64{r.Probes, r.Replies, r.Timeouts, r.MaliciousProbes, r.FlaggedMalicious,
		r.FlaggedBenign, int64(r.Sim.Events), int64(r.Sim.Scheduled), int64(r.Sim.Cancelled)} {
		if c != 8 {
			t.Fatalf("a counter merged to %d, want 3 + 5: %+v", c, r)
		}
	}
	if r.Sim.MaxPending != 5 || r.Sim.VirtualCycles != 100 {
		t.Errorf("MaxPending %d, VirtualCycles %d; want each shard's max, 5 and 100", r.Sim.MaxPending, r.Sim.VirtualCycles)
	}
	if r.QueueDepth.Count != 2 || r.RTT.Count != 2 {
		t.Errorf("histograms hold %d depth and %d RTT observations, want 2 each", r.QueueDepth.Count, r.RTT.Count)
	}
}

// TestRunMetroCanceledContext pins the cancellation contract at the
// stream boundary: a context canceled before the run starts aborts the
// run during ingest with the context's error and no result.
func TestRunMetroCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		cfg := MetroPaper(2_000, 1)
		cfg.Workers = workers
		res, err := RunMetro(ctx, cfg)
		if res != nil {
			t.Errorf("workers=%d: canceled run returned a result", workers)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestRunMetroCancelMidRun cancels a large run from another goroutine
// shortly after it starts, so cancellation lands mid-stream or at a
// shard's check before its next window (at K=1 too) rather than at the
// entry check. The population is sized to take far longer than the
// cancel delay on any machine.
func TestRunMetroCancelMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("large-population cancellation test; run without -short")
	}
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		cfg := MetroPaper(300_000, 1)
		cfg.Workers = workers
		start := time.Now()
		res, err := RunMetro(ctx, cfg)
		wall := time.Since(start)
		cancel()
		if res != nil {
			t.Errorf("workers=%d: canceled run returned a result", workers)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// A full 300k run takes seconds; a prompt abort takes
		// milliseconds. The generous bound only catches "cancellation
		// ignored, ran to completion".
		if wall > 10*time.Second {
			t.Errorf("workers=%d: canceled run still took %v", workers, wall)
		}
	}
}

// BenchmarkRunMetroWorkers measures the sharded kernel's scaling curve.
// Under -short (the CI bench-smoke leg) it runs a 2k-node population
// once per worker count — a compilation-and-liveness check; the real
// curve comes from the full run at 100k nodes and from
// results/BENCH_*_parallel.json at 1M.
func BenchmarkRunMetroWorkers(b *testing.B) {
	nodes := int64(100_000)
	if testing.Short() {
		nodes = 2_000
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			cfg := MetroPaper(nodes, 1)
			cfg.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunMetro(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
