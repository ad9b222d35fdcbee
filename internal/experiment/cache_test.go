package experiment

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"beaconsec/internal/cache"
	"beaconsec/internal/scenario"
)

func testCache(t *testing.T) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// resultJSON marshals a figure result with its wall-clock half zeroed,
// the form the byte-identity contract is stated in.
func resultJSON(t *testing.T, r Result) []byte {
	t.Helper()
	stripTiming(&r)
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFig12CacheByteIdentity pins the tentpole contract: a figure's
// marshaled result is byte-identical whether it ran with no cache, a
// cold cache, or a warm cache, at one worker or a full pool.
func TestFig12CacheByteIdentity(t *testing.T) {
	base := resultJSON(t, mustRun(t, Fig12, Options{Quick: true, Seed: 1, Workers: 1}))

	c := testCache(t)
	for _, run := range []struct {
		name    string
		workers int
	}{
		{"cold/1", 1},
		{"warm/1", 1},
		{"warm/ncpu", runtime.NumCPU()},
	} {
		o := Options{Quick: true, Seed: 1, Workers: run.workers, Cache: c}
		got := resultJSON(t, mustRun(t, Fig12, o))
		if !bytes.Equal(base, got) {
			t.Fatalf("%s diverged from the uncached run:\n%s\nvs\n%s", run.name, base, got)
		}
	}
}

// TestFig12WarmCacheReplays checks the hit/miss counters surface through
// the figure's Timing: a cold run misses every sweep job, a warm run of
// the same figure hits every one.
func TestFig12WarmCacheReplays(t *testing.T) {
	c := testCache(t)
	o := Options{Quick: true, Seed: 1, Cache: c}

	cold := mustRun(t, Fig12, o)
	tm := cold.Metrics.Timing
	if tm.CacheMisses != uint64(tm.Jobs) || tm.CacheHits != 0 {
		t.Fatalf("cold run: hits %d misses %d over %d jobs",
			tm.CacheHits, tm.CacheMisses, tm.Jobs)
	}

	warm := mustRun(t, Fig12, o)
	tm = warm.Metrics.Timing
	if tm.CacheHits != uint64(tm.Jobs) || tm.CacheMisses != 0 {
		t.Fatalf("warm run: hits %d misses %d over %d jobs",
			tm.CacheHits, tm.CacheMisses, tm.Jobs)
	}
}

// TestFig13ReusesFig12Sweep pins the dedup win the shared "detect" sweep
// buys: fig12 and fig13 render different figures from the same detection
// sweep, so after fig12 runs cold, fig13 computes nothing.
func TestFig13ReusesFig12Sweep(t *testing.T) {
	c := testCache(t)
	o := Options{Quick: true, Seed: 1, Cache: c}
	mustRun(t, Fig12, o)

	r13 := mustRun(t, Fig13, o)
	tm := r13.Metrics.Timing
	if tm.CacheMisses != 0 || tm.CacheHits != uint64(tm.Jobs) {
		t.Fatalf("fig13 after fig12: hits %d misses %d over %d jobs — sweep not shared",
			tm.CacheHits, tm.CacheMisses, tm.Jobs)
	}
}

// TestCacheSurvivesProcessRestart simulates a new process on the same
// cache directory: a fresh Cache handle over fig12's entries must serve
// the warm run entirely from disk.
func TestCacheSurvivesProcessRestart(t *testing.T) {
	dir := t.TempDir()
	c1, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	base := resultJSON(t, mustRun(t, Fig12, Options{Quick: true, Seed: 1, Cache: c1}))

	c2, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	warm := mustRun(t, Fig12, Options{Quick: true, Seed: 1, Cache: c2})
	tm := warm.Metrics.Timing
	if tm.CacheMisses != 0 {
		t.Fatalf("fresh handle over a populated dir missed %d jobs", tm.CacheMisses)
	}
	if got := resultJSON(t, warm); !bytes.Equal(base, got) {
		t.Fatalf("disk replay diverged:\n%s\nvs\n%s", base, got)
	}
}

// TestEncodeKeySensitivity: an experiment sweep's cache key must separate
// sweeps by kind (the sweep label), by detector, and by any config field,
// and be stable for equal inputs. The key is the harness job fingerprint
// over the label and the sweep's seed-zeroed scenario configs; the
// boundaries between its parts are pinned by the harness package's
// TestJobFingerprintSensitivity.
func TestEncodeKeySensitivity(t *testing.T) {
	o := Options{Quick: true, Seed: 1, Cache: testCache(t)}
	hits := func(label string, mutate func(*scenario.Config)) uint64 {
		t.Helper()
		_, rm, err := simSweep(o, label, []float64{0.3}, 1, mutate)
		if err != nil {
			t.Fatal(err)
		}
		return rm.Timing.CacheHits
	}
	if h := hits("sweep", nil); h != 0 {
		t.Fatalf("cold sweep replayed %d jobs", h)
	}
	if h := hits("sweep", nil); h != 1 {
		t.Error("equal inputs did not replay the cached job")
	}
	if h := hits("other", nil); h != 0 {
		t.Error("kind change replayed the cached job")
	}
	if h := hits("sweep", func(c *scenario.Config) { c.Detector = "ml" }); h != 0 {
		t.Error("detector change replayed the cached job")
	}
	if h := hits("sweep", func(c *scenario.Config) { c.Collude = !c.Collude }); h != 0 {
		t.Error("config change replayed the cached job")
	}
	// The variants stored beside the original, not over it.
	if h := hits("sweep", nil); h != 1 {
		t.Error("original entry lost after the variant sweeps")
	}
}

// TestSeedChangesMissCache: a different experiment seed must address
// different entries (derived trial seeds differ), not replay old ones.
func TestSeedChangesMissCache(t *testing.T) {
	c := testCache(t)
	mustRun(t, Fig12, Options{Quick: true, Seed: 1, Cache: c})

	r := mustRun(t, Fig12, Options{Quick: true, Seed: 2, Cache: c})
	if hits := r.Metrics.Timing.CacheHits; hits != 0 {
		t.Fatalf("seed change replayed %d stale trials", hits)
	}
}
