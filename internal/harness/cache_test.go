package harness

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"beaconsec/internal/cache"
	"beaconsec/internal/rng"
)

// cachedNoiseSpec is noiseSpec with caching wired in, counting real
// executions of Run.
func cachedNoiseSpec(workers int, store *cache.Cache, config any, runs *atomic.Int64) Spec[float64] {
	spec := noiseSpec(workers)
	spec.Cache = store
	spec.Config = config
	inner := spec.Run
	spec.Run = func(ctx context.Context, job Job) (float64, error) {
		runs.Add(1)
		return inner(ctx, job)
	}
	return spec
}

func newMemCache(t *testing.T) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newDiskCache(t *testing.T) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSweepCacheColdMatchesUncached pins that routing results through
// the cache loses nothing: a cold cached sweep equals the plain sweep
// exactly.
func TestSweepCacheColdMatchesUncached(t *testing.T) {
	plain, err := Sweep(context.Background(), noiseSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	cached, err := Sweep(context.Background(), cachedNoiseSpec(1, newMemCache(t), "k1", &runs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cached) {
		t.Fatalf("cached cold sweep diverged:\nplain:  %v\ncached: %v", plain, cached)
	}
}

// TestSweepJSONPassWithoutCache pins that results pass through
// encoding/json even with no cache: the caller sees what the encoding
// carries and nothing else, as it would on a cache hit, and the sweep
// does not hold the unexported state (for a scenario result, the whole
// simulation) until it ends.
func TestSweepJSONPassWithoutCache(t *testing.T) {
	type result struct {
		Trial int
		graph []byte
	}
	rows, err := Sweep(context.Background(), Spec[result]{
		Label:   "json-pass",
		Points:  []string{"a", "b"},
		Trials:  3,
		Seed:    1,
		Workers: 2,
		Run: func(_ context.Context, job Job) (result, error) {
			return result{Trial: job.Trial, graph: make([]byte, 1<<10)}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for point, trials := range rows {
		for tr, r := range trials {
			if r.Trial != tr {
				t.Errorf("point %d trial %d: decoded Trial = %d", point, tr, r.Trial)
			}
			if r.graph != nil {
				t.Errorf("point %d trial %d: caller saw the unexported field Run set", point, tr)
			}
		}
	}
}

// TestSweepWarmReplaysWithoutRunning pins the headline behavior: a warm
// sweep runs zero jobs, reports every job as a cache hit, and returns
// results identical to the cold sweep — at one worker and at NumCPU.
func TestSweepWarmReplaysWithoutRunning(t *testing.T) {
	for _, store := range map[string]*cache.Cache{"memory": newMemCache(t), "disk": newDiskCache(t)} {
		var runs atomic.Int64
		coldSpec := cachedNoiseSpec(1, store, "k1", &runs)
		coldSpec.Timing = NewTiming()
		cold, err := Sweep(context.Background(), coldSpec)
		if err != nil {
			t.Fatal(err)
		}
		jobs := int64(len(coldSpec.Points) * coldSpec.Trials)
		if runs.Load() != jobs {
			t.Fatalf("cold sweep ran %d jobs, want %d", runs.Load(), jobs)
		}
		if coldSpec.Timing.CacheMisses != uint64(jobs) || coldSpec.Timing.CacheHits != 0 {
			t.Errorf("cold timing counters: %d hits, %d misses", coldSpec.Timing.CacheHits, coldSpec.Timing.CacheMisses)
		}

		for _, workers := range []int{1, runtime.NumCPU()} {
			runs.Store(0)
			warmSpec := cachedNoiseSpec(workers, store, "k1", &runs)
			warmSpec.Timing = NewTiming()
			warm, err := Sweep(context.Background(), warmSpec)
			if err != nil {
				t.Fatal(err)
			}
			if runs.Load() != 0 {
				t.Errorf("workers=%d: warm sweep ran %d jobs", workers, runs.Load())
			}
			if warmSpec.Timing.CacheHits != uint64(jobs) || warmSpec.Timing.CacheMisses != 0 {
				t.Errorf("workers=%d: warm timing counters: %d hits, %d misses",
					workers, warmSpec.Timing.CacheHits, warmSpec.Timing.CacheMisses)
			}
			if !reflect.DeepEqual(cold, warm) {
				t.Errorf("workers=%d: warm results diverged from cold", workers)
			}
		}
	}
}

// TestSweepCacheKeyChangeMisses pins the invalidation contract: any
// change to the sweep's Config must recompute every job.
func TestSweepCacheKeyChangeMisses(t *testing.T) {
	store := newMemCache(t)
	var runs atomic.Int64
	if _, err := Sweep(context.Background(), cachedNoiseSpec(1, store, "config-v1", &runs)); err != nil {
		t.Fatal(err)
	}
	runs.Store(0)
	if _, err := Sweep(context.Background(), cachedNoiseSpec(1, store, "config-v2", &runs)); err != nil {
		t.Fatal(err)
	}
	if runs.Load() == 0 {
		t.Fatal("changed key served stale entries")
	}
}

// TestSweepCacheSharedAcrossConcurrentSweeps pins cross-sweep
// single-flighting: two identical sweeps racing on one cache (the
// fig12/fig13 shape) execute each job once between them.
func TestSweepCacheSharedAcrossConcurrentSweeps(t *testing.T) {
	store := newMemCache(t)
	var runs atomic.Int64
	results := make([][][]float64, 2)
	errs := make([]error, 2)
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			results[i], errs[i] = Sweep(context.Background(),
				cachedNoiseSpec(2, store, "shared", &runs))
			done <- i
		}(i)
	}
	<-done
	<-done
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
	}
	spec := noiseSpec(1)
	jobs := int64(len(spec.Points) * spec.Trials)
	if got := runs.Load(); got != jobs {
		t.Errorf("two concurrent identical sweeps ran %d jobs, want %d (each job once)", got, jobs)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("concurrent sweeps returned different results")
	}
}

// TestSweepCacheErrorNotStored pins that a failing job poisons nothing:
// the error propagates, and a subsequent sweep recomputes and succeeds.
func TestSweepCacheErrorNotStored(t *testing.T) {
	store := newMemCache(t)
	boom := errors.New("transient failure")
	fail := true
	spec := noiseSpec(1)
	spec.Cache = store
	spec.Config = "flaky"
	inner := spec.Run
	spec.Run = func(ctx context.Context, job Job) (float64, error) {
		if fail && job.Point == 1 {
			return 0, boom
		}
		return inner(ctx, job)
	}
	if _, err := Sweep(context.Background(), spec); !errors.Is(err, boom) {
		t.Fatalf("sweep error = %v, want %v", err, boom)
	}
	fail = false
	got, err := Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Sweep(context.Background(), noiseSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("post-failure sweep results diverged from plain sweep")
	}
}

// TestSweepCacheRequiresConfig pins the configuration contract: a
// cached sweep needs a Config, and one that encoding/json cannot encode
// is a Sweep error, not a panic.
func TestSweepCacheRequiresConfig(t *testing.T) {
	spec := noiseSpec(1)
	spec.Cache = newMemCache(t)
	if _, err := Sweep(context.Background(), spec); err == nil {
		t.Error("Cache without Config accepted")
	}
	for _, bad := range []any{math.NaN(), func() {}, make(chan int)} {
		spec.Config = bad
		if _, err := Sweep(context.Background(), spec); err == nil {
			t.Errorf("unencodable Config %T accepted", bad)
		}
	}
}

// TestSweepCacheUndecodableEntryRecomputes pins the schema-drift
// fallback: an intact entry whose payload no longer decodes is
// recomputed and overwritten, not a crash and not a wrong result.
func TestSweepCacheUndecodableEntryRecomputes(t *testing.T) {
	store := newMemCache(t)
	spec := noiseSpec(1)
	// Pre-poison every job's entry with valid-checksum, non-float JSON.
	for p, label := range spec.Points {
		for tr := 0; tr < spec.Trials; tr++ {
			job := Job{
				Point: p, Trial: tr,
				Seed:      jobSeed(spec.Seed, spec.Label, label, tr),
				TrialSeed: TrialSeed(spec.Seed, spec.Label, tr),
			}
			store.Put(JobFingerprint(spec.Label, []byte(`"k"`), label, job), []byte(`{"not":"a float"}`))
		}
	}
	spec.Cache = store
	spec.Config = "k"
	got, err := Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Sweep(context.Background(), noiseSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("undecodable entries were not recomputed correctly")
	}
	// The overwritten entries must now decode: a warm sweep replays.
	runs := 0
	spec.Run = func(context.Context, Job) (float64, error) {
		runs++
		return 0, errors.New("should not run")
	}
	if _, err := Sweep(context.Background(), spec); err != nil || runs != 0 {
		t.Errorf("overwritten entries not served: runs=%d err=%v", runs, err)
	}
}

// TestJobFingerprintSensitivity pins what the content address covers:
// sweep label, encoded config, point label, trial index, and both seeds,
// with unambiguous boundaries between the label, config and point
// parts.
func TestJobFingerprintSensitivity(t *testing.T) {
	job := Job{Point: 1, Trial: 2, Seed: 3, TrialSeed: 4}
	base := JobFingerprint("sweep", []byte("key"), "P=0.1", job)
	variants := map[string]cache.Key{
		"label":      JobFingerprint("other", []byte("key"), "P=0.1", job),
		"config":     JobFingerprint("sweep", []byte("other"), "P=0.1", job),
		"point":      JobFingerprint("sweep", []byte("key"), "P=0.2", job),
		"trial":      JobFingerprint("sweep", []byte("key"), "P=0.1", Job{Point: 1, Trial: 3, Seed: 3, TrialSeed: 4}),
		"seed":       JobFingerprint("sweep", []byte("key"), "P=0.1", Job{Point: 1, Trial: 2, Seed: 5, TrialSeed: 4}),
		"trial seed": JobFingerprint("sweep", []byte("key"), "P=0.1", Job{Point: 1, Trial: 2, Seed: 3, TrialSeed: 5}),
	}
	for name, v := range variants {
		if v == base {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}
	if JobFingerprint("sweep", []byte("key"), "P=0.1", job) != base {
		t.Error("fingerprint not deterministic")
	}
	// A label or config that absorbs part of its neighbor cannot
	// collide.
	if JobFingerprint("ab", []byte("c"), "d", job) == JobFingerprint("a", []byte("bc"), "d", job) {
		t.Error("label/config boundary ambiguous")
	}
	if JobFingerprint("a", []byte("bc"), "d", job) == JobFingerprint("a", []byte("b"), "cd", job) {
		t.Error("config/point boundary ambiguous")
	}
}

// TestSweepJSONPassRoundTripsExactly spot-checks float64 exactness
// through the sweep's encoding/json pass — the property the
// byte-identity contract rests on — for bare floats and for a
// struct-shaped result.
func TestSweepJSONPassRoundTripsExactly(t *testing.T) {
	type sample struct {
		A float64
		B []float64
		C uint64
	}
	want := func(seed uint64) sample {
		v := rng.New(seed).Float64() * 1e6
		return sample{A: v, B: []float64{0.1 + 0.2, 1e-308, 9007199254740993, v}, C: 1<<63 + seed%2}
	}
	spec := Spec[sample]{
		Label:  "exact",
		Points: FloatLabels("x", []float64{1, 2, 3, 4}),
		Trials: 250,
		Seed:   7,
		Run: func(_ context.Context, job Job) (sample, error) {
			return want(job.Seed), nil
		},
	}
	rows, err := Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for p, trials := range rows {
		for tr, got := range trials {
			if w := want(jobSeed(spec.Seed, spec.Label, spec.Points[p], tr)); !reflect.DeepEqual(got, w) {
				t.Fatalf("point %d trial %d: %+v round-tripped to %+v", p, tr, w, got)
			}
		}
	}
}
