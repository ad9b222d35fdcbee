// Package harness is the shared Monte Carlo trial engine behind every
// simulation-backed experiment. A sweep is a points × trials grid of
// independent jobs (one x-axis point, one trial index each); Sweep runs
// the grid on a bounded worker pool and returns the per-job results in
// grid order, so callers aggregate however they like (or use SweepReduce
// for the common per-point fold).
//
// Four properties make the harness the single place where trial
// execution policy lives:
//
//   - Determinism. Each job's seeds derive from the root seed through
//     labeled rng.Split streams (sweep label → point label → trial
//     index), so results are identical for any worker count and no two
//     points of a sweep ever share a trial seed — unlike the ad-hoc
//     `seed + trial*1000 + uint64(p*1e6)` arithmetic this replaced,
//     which collided across grid cells and truncated fractional axes.
//   - Bounded parallelism. Workers defaults to one goroutine per
//     available CPU and is configurable down to 1; jobs are independent
//     full-fidelity simulations, so the sweep is embarrassingly
//     parallel.
//   - Error propagation. The first job error cancels the sweep's
//     context, stops job dispatch, and is returned to the caller —
//     experiments report failures instead of panicking.
//   - Memoization. With Spec.Cache set, each job's result is
//     content-addressed by its config key and derived seeds
//     (JobFingerprint) and replayed from the cache instead of
//     recomputed; identical concurrent jobs single-flight to one
//     computation. Determinism makes this sound: a fingerprint's
//     result never changes, so warm sweeps are byte-identical to
//     cold ones.
package harness

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"beaconsec/internal/cache"
	"beaconsec/internal/metrics"
	"beaconsec/internal/rng"
)

// Timing is a sweep's wall-clock profile: job count, total wall time,
// throughput, and a per-job latency histogram. Unlike simulation counters
// it is NOT deterministic — wall time varies run to run — so determinism
// comparisons must exclude it. A nil *Timing disables collection at zero
// cost (the methods are nil-receiver no-ops).
type Timing struct {
	// Jobs is the number of completed jobs recorded.
	Jobs uint64 `json:"jobs"`
	// WallSeconds is the sweep's total wall-clock duration.
	WallSeconds float64 `json:"wall_seconds"`
	// JobsPerSec is Jobs / WallSeconds.
	JobsPerSec float64 `json:"jobs_per_sec"`
	// CacheHits / CacheMisses split the jobs by how they were satisfied
	// when Spec.Cache is set: a hit replayed a stored result (memory,
	// disk, or a shared in-flight computation), a miss ran the
	// simulation. Both stay zero with caching disabled.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// Env is the execution environment the sweep ran in. Wall-clock
	// numbers are not comparable without it (a 1-vCPU container shows
	// serial ≈ parallel by construction).
	Env metrics.Env `json:"env"`
	// JobSeconds is the per-job latency distribution, in seconds.
	JobSeconds *metrics.Histogram `json:"job_seconds,omitempty"`
}

// NewTiming returns a Timing with a latency histogram spanning 100µs to
// ~27min in geometric buckets, stamped with the current environment.
func NewTiming() *Timing {
	return &Timing{
		Env:        metrics.CaptureEnv(),
		JobSeconds: metrics.NewHistogram(metrics.ExpBounds(1e-4, 2, 24)...),
	}
}

// observe records one job's wall duration. Callers must serialize (Sweep
// records under its mutex).
func (t *Timing) observe(d time.Duration) {
	if t == nil {
		return
	}
	t.Jobs++
	t.JobSeconds.Observe(d.Seconds())
}

// observeCache records one cached-sweep job's hit/miss outcome. Callers
// must serialize, like observe.
func (t *Timing) observeCache(hit bool) {
	if t == nil {
		return
	}
	if hit {
		t.CacheHits++
	} else {
		t.CacheMisses++
	}
}

// Merge folds another sweep's timing profile into t: job and cache
// counters add, wall time adds (for sweeps run back to back, as a
// multi-sweep figure does), throughput is re-derived, and the latency
// histograms merge. The environment is taken from whichever profile
// captured one first.
func (t *Timing) Merge(o Timing) {
	t.Jobs += o.Jobs
	t.WallSeconds += o.WallSeconds
	if t.WallSeconds > 0 {
		t.JobsPerSec = float64(t.Jobs) / t.WallSeconds
	}
	t.CacheHits += o.CacheHits
	t.CacheMisses += o.CacheMisses
	if (t.Env == metrics.Env{}) {
		t.Env = o.Env
	}
	if o.JobSeconds != nil {
		if t.JobSeconds == nil {
			t.JobSeconds = metrics.NewHistogram(o.JobSeconds.Bounds...)
		}
		t.JobSeconds.Merge(o.JobSeconds)
	}
}

// finish stamps the sweep's total wall time and derives throughput.
func (t *Timing) finish(wall time.Duration) {
	if t == nil {
		return
	}
	t.WallSeconds = wall.Seconds()
	if t.WallSeconds > 0 {
		t.JobsPerSec = float64(t.Jobs) / t.WallSeconds
	}
}

// Job identifies one cell of a sweep grid and carries its
// deterministically derived seeds.
type Job struct {
	// Point and Trial are the grid coordinates: Point indexes
	// Spec.Points, Trial ranges over [0, Spec.Trials).
	Point int
	Trial int
	// Seed is unique to (sweep label, point label, trial index): the
	// per-job randomness.
	Seed uint64
	// TrialSeed is unique to (sweep label, trial index) and shared by
	// every point of the same trial — for common-random-number designs
	// where, e.g., the same node deployment should back every x-axis
	// point of a trial so curves differ only in the swept parameter.
	TrialSeed uint64
}

// Progress reports sweep advancement to Spec.Progress.
type Progress struct {
	// Done jobs out of Total.
	Done, Total int
	// Elapsed time since Sweep started.
	Elapsed time.Duration
}

// Spec describes one points × trials Monte Carlo sweep.
type Spec[R any] struct {
	// Label names the sweep. Distinct labels derive independent seed
	// streams from the same root seed, so two sweeps (e.g. two figures)
	// with the same root never replay each other's randomness.
	Label string
	// Points labels each x-axis point (e.g. "P=0.2"). Labels must be
	// distinct: the label is the point's seed-stream identity.
	Points []string
	// Trials is the number of trials per point.
	Trials int
	// Seed is the root seed all job seeds derive from.
	Seed uint64
	// Workers bounds the worker pool; <= 0 means one worker per
	// available CPU (runtime.GOMAXPROCS(0)).
	Workers int
	// Run executes one job. It must be safe for concurrent invocation
	// with distinct jobs; all randomness must come from the job's seeds
	// for the sweep to stay deterministic.
	Run func(ctx context.Context, job Job) (R, error)
	// Progress, when non-nil, observes each job completion.
	// Invocations are serialized.
	Progress func(Progress)
	// Timing, when non-nil, collects the sweep's wall-clock profile
	// (per-job latency, throughput). nil disables collection.
	Timing *Timing

	// Cache, when non-nil, memoizes per-job results across sweeps and
	// processes, content-addressed by (cache.CodeSalt, Key, point label,
	// job seeds). Identical in-flight jobs — two concurrent sweeps over
	// the same grid — are single-flighted to one computation. Requires
	// Key and Codec.
	Cache *cache.Cache
	// Key is the canonical, versioned encoding of every Run input the
	// job seeds do not already capture — i.e. the experiment
	// configuration Run closes over. Any semantic config change must
	// change these bytes, or the cache serves stale results.
	Key []byte
	// Codec serializes R for cache storage. JSONCodec[R]() fits any R
	// whose meaningful state is exported fields of JSON-exact types.
	// When set, every result passes through it, with or without a
	// cache: reducers see the same decoded value in both modes, so cold
	// and warm sweeps are byte-identical by construction, and the sweep
	// holds only what the codec carries until it ends (not, say, a
	// scenario result's whole simulation).
	Codec Codec[R]
}

// Codec converts sweep results to and from cache entry bytes. Unmarshal
// ∘ Marshal must reproduce every field downstream aggregation reads —
// the cache serves decoded entries in place of fresh results.
type Codec[R any] interface {
	Marshal(r R) ([]byte, error)
	Unmarshal(data []byte) (R, error)
}

// JSONCodec returns the encoding/json-backed Codec. encoding/json
// round-trips exported fields of finite floats, integers, strings,
// slices, and structs exactly, which covers every experiment result
// type in this repository.
func JSONCodec[R any]() Codec[R] { return jsonCodec[R]{} }

type jsonCodec[R any] struct{}

func (jsonCodec[R]) Marshal(r R) ([]byte, error) { return json.Marshal(r) }

func (jsonCodec[R]) Unmarshal(data []byte) (R, error) {
	var r R
	err := json.Unmarshal(data, &r)
	return r, err
}

// JobFingerprint is the content address of one job's result: the
// code-version salt, the sweep's canonical config key, and the job's
// grid identity (point label, trial index, derived seeds). Exported so
// tests can pin the construction independently of Sweep.
func JobFingerprint(specKey []byte, pointLabel string, job Job) cache.Key {
	var grid [24]byte
	binary.LittleEndian.PutUint64(grid[0:8], job.Seed)
	binary.LittleEndian.PutUint64(grid[8:16], job.TrialSeed)
	binary.LittleEndian.PutUint64(grid[16:24], uint64(job.Trial))
	return cache.Fingerprint(cache.CodeSalt, specKey, []byte(pointLabel), grid[:])
}

// runJob executes one job, through the cache when configured and
// through the codec whenever there is one. The returned hit reports
// whether a stored or shared result was replayed instead of running
// spec.Run.
func runJob[R any](ctx context.Context, spec *Spec[R], job Job) (R, bool, error) {
	var zero R
	if spec.Cache == nil {
		r, err := spec.Run(ctx, job)
		if err != nil || spec.Codec == nil {
			return r, false, err
		}
		data, err := spec.Codec.Marshal(r)
		if err != nil {
			return zero, false, err
		}
		r, err = spec.Codec.Unmarshal(data)
		return r, false, err
	}
	key := JobFingerprint(spec.Key, spec.Points[job.Point], job)
	data, hit, err := spec.Cache.GetOrCompute(key, func() ([]byte, error) {
		r, err := spec.Run(ctx, job)
		if err != nil {
			return nil, err
		}
		return spec.Codec.Marshal(r)
	})
	if err != nil {
		return zero, false, err
	}
	r, err := spec.Codec.Unmarshal(data)
	if err != nil {
		// The entry's bytes are intact (checksummed) but no longer
		// decode: the result schema changed without a CodeSalt bump.
		// Recompute and overwrite rather than failing the sweep —
		// still through the codec, to keep cold/warm byte-identity.
		fresh, rerr := spec.Run(ctx, job)
		if rerr != nil {
			return zero, false, rerr
		}
		encoded, merr := spec.Codec.Marshal(fresh)
		if merr != nil {
			return zero, false, merr
		}
		spec.Cache.Put(key, encoded)
		r, err = spec.Codec.Unmarshal(encoded)
		if err != nil {
			return zero, false, fmt.Errorf("harness: result codec does not round-trip: %w", err)
		}
		return r, false, nil
	}
	return r, hit, nil
}

// TrialSeed returns the point-independent seed Sweep assigns to a trial
// index: every point of a sweep sees the same TrialSeed at the same
// trial.
func TrialSeed(rootSeed uint64, sweepLabel string, trial int) uint64 {
	return rng.New(rootSeed).
		Split("sweep:" + sweepLabel).
		Split("trials").
		SplitIndex(uint64(trial)).
		Uint64()
}

// FloatLabels builds one point label per value of a float-valued axis:
// FloatLabels("P", []float64{0.1, 0.3}) → ["P=0.1", "P=0.3"]. The %g
// rendering is injective over distinct floats, so distinct values get
// distinct seed streams.
func FloatLabels(name string, xs []float64) []string {
	labels := make([]string, len(xs))
	for i, x := range xs {
		labels[i] = fmt.Sprintf("%s=%g", name, x)
	}
	return labels
}

// Sweep runs the spec's points × trials grid and returns results indexed
// [point][trial]. The result grid is identical for any worker count; the
// first job error cancels outstanding work and is returned.
func Sweep[R any](ctx context.Context, spec Spec[R]) ([][]R, error) {
	if spec.Run == nil {
		return nil, errors.New("harness: Spec.Run is nil")
	}
	if spec.Trials <= 0 {
		return nil, fmt.Errorf("harness: non-positive trials %d", spec.Trials)
	}
	if spec.Cache != nil {
		if len(spec.Key) == 0 {
			return nil, errors.New("harness: Spec.Cache set without a canonical Spec.Key")
		}
		if spec.Codec == nil {
			return nil, errors.New("harness: Spec.Cache set without a Spec.Codec")
		}
	}
	seen := make(map[string]struct{}, len(spec.Points))
	for _, l := range spec.Points {
		if _, dup := seen[l]; dup {
			return nil, fmt.Errorf("harness: duplicate point label %q would share a seed stream", l)
		}
		seen[l] = struct{}{}
	}
	out := make([][]R, len(spec.Points))
	for i := range out {
		out[i] = make([]R, spec.Trials)
	}
	if len(spec.Points) == 0 {
		return out, nil
	}

	total := len(spec.Points) * spec.Trials
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	trialSeeds := make([]uint64, spec.Trials)
	for tr := range trialSeeds {
		trialSeeds[tr] = TrialSeed(spec.Seed, spec.Label, tr)
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     int
	)
	start := time.Now()
	jobs := make(chan Job)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				jobStart := time.Now()
				r, hit, err := runJob(ctx, &spec, job)
				jobDur := time.Since(jobStart)
				mu.Lock()
				spec.Timing.observe(jobDur)
				if spec.Cache != nil && err == nil {
					spec.Timing.observeCache(hit)
				}
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("harness: %s, point %q, trial %d: %w",
							spec.Label, spec.Points[job.Point], job.Trial, err)
						cancel()
					}
					mu.Unlock()
					continue
				}
				out[job.Point][job.Trial] = r
				done++
				if spec.Progress != nil {
					// Under mu: callback invocations are serialized and
					// Done is monotone as observed by the callback.
					spec.Progress(Progress{Done: done, Total: total, Elapsed: time.Since(start)})
				}
				mu.Unlock()
			}
		}()
	}

dispatch:
	for p := range spec.Points {
		pointSrc := rng.New(spec.Seed).Split("sweep:" + spec.Label).Split("point:" + spec.Points[p])
		for tr := 0; tr < spec.Trials; tr++ {
			job := Job{
				Point:     p,
				Trial:     tr,
				Seed:      pointSrc.SplitIndex(uint64(tr)).Uint64(),
				TrialSeed: trialSeeds[tr],
			}
			select {
			case jobs <- job:
			case <-ctx.Done():
				break dispatch
			}
		}
	}
	close(jobs)
	wg.Wait()
	spec.Timing.finish(time.Since(start))

	if firstErr != nil {
		return nil, firstErr
	}
	if err := parent.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// SweepReduce runs Sweep and folds each point's trials through reduce,
// preserving point order — the common "average the trials" shape.
func SweepReduce[R, A any](ctx context.Context, spec Spec[R], reduce func(point int, trials []R) A) ([]A, error) {
	rows, err := Sweep(ctx, spec)
	if err != nil {
		return nil, err
	}
	folded := make([]A, len(rows))
	for i, row := range rows {
		folded[i] = reduce(i, row)
	}
	return folded, nil
}
