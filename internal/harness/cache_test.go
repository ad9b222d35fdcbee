package harness

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"beaconsec/internal/cache"
	"beaconsec/internal/rng"
)

// cachedNoiseSpec is noiseSpec with caching wired in, counting real
// executions of Run.
func cachedNoiseSpec(workers int, store *cache.Cache, key []byte, runs *atomic.Int64) Spec[float64] {
	spec := noiseSpec(workers)
	spec.Cache = store
	spec.Key = key
	spec.Codec = JSONCodec[float64]()
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
// the codec loses nothing: a cold cached sweep equals the plain sweep
// exactly.
func TestSweepCacheColdMatchesUncached(t *testing.T) {
	plain, err := Sweep(context.Background(), noiseSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	cached, err := Sweep(context.Background(), cachedNoiseSpec(1, newMemCache(t), []byte("k1"), &runs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cached) {
		t.Fatalf("cached cold sweep diverged:\nplain:  %v\ncached: %v", plain, cached)
	}
}

// TestSweepCodecWithoutCache pins that results pass through the codec
// even with no cache: the reducer sees what the codec carries and
// nothing else, as it would on a cache hit, and the sweep does not hold
// the unexported state (for a scenario result, the whole simulation)
// until it ends.
func TestSweepCodecWithoutCache(t *testing.T) {
	type result struct {
		Trial int
		graph []byte
	}
	spec := Spec[result]{
		Label:   "codec",
		Points:  []string{"a", "b"},
		Trials:  3,
		Seed:    1,
		Workers: 2,
		Codec:   JSONCodec[result](),
		Run: func(_ context.Context, job Job) (result, error) {
			return result{Trial: job.Trial, graph: make([]byte, 1<<10)}, nil
		},
	}
	_, err := SweepReduce(context.Background(), spec, func(point int, trials []result) int {
		for tr, r := range trials {
			if r.Trial != tr {
				t.Errorf("point %d trial %d: decoded Trial = %d", point, tr, r.Trial)
			}
			if r.graph != nil {
				t.Errorf("point %d trial %d: reducer saw the unexported field Run set", point, tr)
			}
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSweepWarmReplaysWithoutRunning pins the headline behavior: a warm
// sweep runs zero jobs, reports every job as a cache hit, and returns
// results identical to the cold sweep — at one worker and at NumCPU.
func TestSweepWarmReplaysWithoutRunning(t *testing.T) {
	for _, store := range map[string]*cache.Cache{"memory": newMemCache(t), "disk": newDiskCache(t)} {
		var runs atomic.Int64
		coldSpec := cachedNoiseSpec(1, store, []byte("k1"), &runs)
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
			warmSpec := cachedNoiseSpec(workers, store, []byte("k1"), &runs)
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
// change to the canonical config key must recompute every job.
func TestSweepCacheKeyChangeMisses(t *testing.T) {
	store := newMemCache(t)
	var runs atomic.Int64
	if _, err := Sweep(context.Background(), cachedNoiseSpec(1, store, []byte("config-v1"), &runs)); err != nil {
		t.Fatal(err)
	}
	runs.Store(0)
	if _, err := Sweep(context.Background(), cachedNoiseSpec(1, store, []byte("config-v2"), &runs)); err != nil {
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
				cachedNoiseSpec(2, store, []byte("shared"), &runs))
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
	spec.Key = []byte("flaky")
	spec.Codec = JSONCodec[float64]()
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

// TestSweepCacheRequiresKeyAndCodec pins the configuration contract.
func TestSweepCacheRequiresKeyAndCodec(t *testing.T) {
	spec := noiseSpec(1)
	spec.Cache = newMemCache(t)
	spec.Codec = JSONCodec[float64]()
	if _, err := Sweep(context.Background(), spec); err == nil {
		t.Error("Cache without Key accepted")
	}
	spec.Key = []byte("k")
	spec.Codec = nil
	if _, err := Sweep(context.Background(), spec); err == nil {
		t.Error("Cache without Codec accepted")
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
			store.Put(JobFingerprint([]byte("k"), label, job), []byte(`{"not":"a float"}`))
		}
	}
	spec.Cache = store
	spec.Key = []byte("k")
	spec.Codec = JSONCodec[float64]()
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
// config key, point label, trial index, and both seeds.
func TestJobFingerprintSensitivity(t *testing.T) {
	job := Job{Point: 1, Trial: 2, Seed: 3, TrialSeed: 4}
	base := JobFingerprint([]byte("key"), "P=0.1", job)
	variants := map[string]cache.Key{
		"config key": JobFingerprint([]byte("other"), "P=0.1", job),
		"point":      JobFingerprint([]byte("key"), "P=0.2", job),
		"trial":      JobFingerprint([]byte("key"), "P=0.1", Job{Point: 1, Trial: 3, Seed: 3, TrialSeed: 4}),
		"seed":       JobFingerprint([]byte("key"), "P=0.1", Job{Point: 1, Trial: 2, Seed: 5, TrialSeed: 4}),
		"trial seed": JobFingerprint([]byte("key"), "P=0.1", Job{Point: 1, Trial: 2, Seed: 3, TrialSeed: 5}),
	}
	for name, v := range variants {
		if v == base {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}
	if JobFingerprint([]byte("key"), "P=0.1", job) != base {
		t.Error("fingerprint not deterministic")
	}
}

// TestJSONCodecRoundTripsExactly spot-checks float64 exactness through
// the codec — the property the byte-identity contract rests on.
func TestJSONCodecRoundTripsExactly(t *testing.T) {
	codec := JSONCodec[float64]()
	src := rng.New(7)
	for i := 0; i < 1000; i++ {
		v := src.Float64() * 1e6
		b, err := codec.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := codec.Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("float64 %v round-tripped to %v", v, got)
		}
	}
	// And a struct-shaped payload mirrors encoding/json semantics.
	type sample struct {
		A float64
		B []float64
		C uint64
	}
	sc := JSONCodec[sample]()
	in := sample{A: 0.1 + 0.2, B: []float64{1e-308, 9007199254740993}, C: 1<<63 + 1}
	b, err := sc.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sc.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var ref sample
	if err := json.Unmarshal(b, &ref); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) || !reflect.DeepEqual(out, ref) {
		t.Fatalf("struct round-trip drifted: in=%+v out=%+v", in, out)
	}
}
