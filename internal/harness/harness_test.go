package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"beaconsec/internal/rng"
)

// jobSeed derives the seed Sweep assigns to one grid cell, written out
// independently of Sweep so tests pin the derivation.
func jobSeed(rootSeed uint64, sweepLabel, pointLabel string, trial int) uint64 {
	return rng.New(rootSeed).
		Split("sweep:" + sweepLabel).
		Split("point:" + pointLabel).
		SplitIndex(uint64(trial)).
		Uint64()
}

// noiseSpec is a sweep whose job results depend only on the job seeds,
// like a real simulation does.
func noiseSpec(workers int) Spec[float64] {
	return Spec[float64]{
		Label:   "noise",
		Points:  FloatLabels("P", []float64{0.1, 0.2, 0.3, 0.4}),
		Trials:  5,
		Seed:    42,
		Workers: workers,
		Run: func(_ context.Context, job Job) (float64, error) {
			src := rng.New(job.Seed)
			sum := src.Float64()
			// Mix in the trial-shared stream so its determinism is
			// exercised too.
			sum += rng.New(job.TrialSeed).Float64()
			return sum, nil
		},
	}
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	base, err := Sweep(context.Background(), noiseSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 8, 16} {
		got, err := Sweep(context.Background(), noiseSpec(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d changed results:\n1: %v\n%d: %v", workers, base, workers, got)
		}
	}
}

func TestSweepGridShapeAndSeeds(t *testing.T) {
	var mu sync.Mutex
	jobs := map[[2]int]Job{}
	spec := noiseSpec(4)
	inner := spec.Run
	spec.Run = func(ctx context.Context, job Job) (float64, error) {
		mu.Lock()
		jobs[[2]int{job.Point, job.Trial}] = job
		mu.Unlock()
		return inner(ctx, job)
	}
	out, err := Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(spec.Points) {
		t.Fatalf("points: %d", len(out))
	}
	for p := range spec.Points {
		if len(out[p]) != spec.Trials {
			t.Fatalf("point %d trials: %d", p, len(out[p]))
		}
		for tr := 0; tr < spec.Trials; tr++ {
			job, ok := jobs[[2]int{p, tr}]
			if !ok {
				t.Fatalf("job (%d,%d) never ran", p, tr)
			}
			if want := jobSeed(spec.Seed, spec.Label, spec.Points[p], tr); job.Seed != want {
				t.Errorf("job (%d,%d) seed %d, want %d", p, tr, job.Seed, want)
			}
			if want := TrialSeed(spec.Seed, spec.Label, tr); job.TrialSeed != want {
				t.Errorf("job (%d,%d) trial seed %d, want %d", p, tr, job.TrialSeed, want)
			}
		}
	}
	// TrialSeed is shared across points at the same trial, distinct
	// across trials.
	for tr := 0; tr < spec.Trials; tr++ {
		first := jobs[[2]int{0, tr}].TrialSeed
		for p := 1; p < len(spec.Points); p++ {
			if jobs[[2]int{p, tr}].TrialSeed != first {
				t.Errorf("trial %d: TrialSeed differs across points", tr)
			}
		}
	}
	if jobs[[2]int{0, 0}].TrialSeed == jobs[[2]int{0, 1}].TrialSeed {
		t.Error("TrialSeed identical for trials 0 and 1")
	}
}

// TestJobSeedsDistinctAcrossPointsAndTrials is the regression test for
// the seed derivation the harness replaced: the old per-trial arithmetic
// `o.Seed + trial*1000 + uint64(p*1e6)` collided across grid cells (e.g.
// P=0.05 at trial 0 equals P=0.0 at trial 50) and truncated fractional
// or negative axis values. Labeled split streams must give every
// (point, trial) cell a distinct seed.
func TestJobSeedsDistinctAcrossPointsAndTrials(t *testing.T) {
	// Includes the quick-mode grid, close fractional values, and a
	// negative axis value — all cases the old arithmetic mishandled.
	ps := []float64{-0.1, 0.001, 0.0011, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 1.0}
	seen := make(map[uint64]string)
	for _, p := range ps {
		label := fmt.Sprintf("P=%g", p)
		for tr := 0; tr < 200; tr++ {
			s := jobSeed(1, "fig12", label, tr)
			cell := fmt.Sprintf("%s/trial=%d", label, tr)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both derive %d", prev, cell, s)
			}
			seen[s] = cell
		}
	}
	// Distinct sweep labels must not replay each other's seeds either.
	if jobSeed(1, "fig12", "P=0.1", 0) == jobSeed(1, "fig13", "P=0.1", 0) {
		t.Error("distinct sweep labels share a job seed")
	}
}

func TestSweepPropagatesFirstErrorAndCancels(t *testing.T) {
	boom := errors.New("boom")
	spec := Spec[int]{
		Label:   "err",
		Points:  []string{"a", "b", "c", "d", "e", "f", "g", "h"},
		Trials:  4,
		Seed:    1,
		Workers: 4,
		Run: func(ctx context.Context, job Job) (int, error) {
			if job.Point == 1 && job.Trial == 0 {
				return 0, boom
			}
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(10 * time.Millisecond):
				return 1, nil
			}
		},
	}
	_, err := Sweep(context.Background(), spec)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), `point "b"`) || !strings.Contains(err.Error(), "trial 0") {
		t.Errorf("error does not identify the failing cell: %v", err)
	}
}

func TestSweepHonorsParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	spec := Spec[int]{
		Label:   "cancel",
		Points:  []string{"a", "b"},
		Trials:  64,
		Seed:    1,
		Workers: 1,
		Run: func(ctx context.Context, job Job) (int, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return 0, ctx.Err()
		},
	}
	go func() {
		<-started
		cancel()
	}()
	_, err := Sweep(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSweepProgress(t *testing.T) {
	var mu sync.Mutex
	var seen []Progress
	spec := noiseSpec(4)
	spec.Progress = func(p Progress) {
		mu.Lock()
		seen = append(seen, p)
		mu.Unlock()
	}
	if _, err := Sweep(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	total := len(spec.Points) * spec.Trials
	if len(seen) != total {
		t.Fatalf("progress calls: %d, want %d", len(seen), total)
	}
	for i, p := range seen {
		if p.Total != total {
			t.Errorf("call %d: total %d", i, p.Total)
		}
		if p.Done != i+1 {
			t.Errorf("call %d: done %d, want %d (serialized, monotone)", i, p.Done, i+1)
		}
		if p.Elapsed < 0 {
			t.Errorf("call %d: negative elapsed", i)
		}
	}
}

func TestSweepReduceAverages(t *testing.T) {
	spec := Spec[float64]{
		Label:   "reduce",
		Points:  []string{"x", "y"},
		Trials:  8,
		Seed:    7,
		Workers: 2,
		Run: func(_ context.Context, job Job) (float64, error) {
			return float64(job.Trial), nil
		},
	}
	means, err := SweepReduce(context.Background(), spec, func(_ int, trials []float64) float64 {
		sum := 0.0
		for _, v := range trials {
			sum += v
		}
		return sum / float64(len(trials))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3.5, 3.5} // mean of 0..7
	if !reflect.DeepEqual(means, want) {
		t.Fatalf("means = %v, want %v", means, want)
	}
}

func TestSweepRejectsBadSpecs(t *testing.T) {
	runOne := func(_ context.Context, _ Job) (int, error) { return 0, nil }
	if _, err := Sweep(context.Background(), Spec[int]{Label: "l", Points: []string{"a"}, Trials: 1}); err == nil {
		t.Error("nil Run accepted")
	}
	if _, err := Sweep(context.Background(), Spec[int]{Label: "l", Points: []string{"a"}, Trials: 0, Run: runOne}); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := Sweep(context.Background(), Spec[int]{Label: "l", Points: []string{"a", "a"}, Trials: 1, Run: runOne}); err == nil {
		t.Error("duplicate point labels accepted")
	}
	out, err := Sweep(context.Background(), Spec[int]{Label: "l", Points: nil, Trials: 1, Run: runOne})
	if err != nil || len(out) != 0 {
		t.Errorf("empty points: out=%v err=%v", out, err)
	}
}

func TestFloatLabels(t *testing.T) {
	got := FloatLabels("P", []float64{0.1, 0.25, 1})
	want := []string{"P=0.1", "P=0.25", "P=1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FloatLabels = %v, want %v", got, want)
	}
}
