package cache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// get returns the stored bytes for key, consulting memory then disk, so
// tests can read an entry without a compute function.
func (c *Cache) get(key Key) ([]byte, bool) {
	if data, ok := c.memGet(key); ok {
		c.stats.Hits.Inc()
		return data, true
	}
	if data, ok := c.diskGet(key); ok {
		c.memPut(key, data)
		c.stats.Hits.Inc()
		c.stats.DiskHits.Inc()
		return data, true
	}
	return nil, false
}

func TestFingerprintDistinguishesInputs(t *testing.T) {
	base := Fingerprint("salt", []byte("config"), []byte("seed"))
	for name, other := range map[string]Key{
		"same inputs":       Fingerprint("salt", []byte("config"), []byte("seed")),
		"changed salt":      Fingerprint("salt2", []byte("config"), []byte("seed")),
		"changed config":    Fingerprint("salt", []byte("confih"), []byte("seed")),
		"changed seed":      Fingerprint("salt", []byte("config"), []byte("seee")),
		"shifted boundary":  Fingerprint("salt", []byte("configs"), []byte("eed")),
		"merged parts":      Fingerprint("salt", []byte("configseed")),
		"extra empty part":  Fingerprint("salt", []byte("config"), []byte("seed"), nil),
		"salt/part swapped": Fingerprint("config", []byte("salt"), []byte("seed")),
	} {
		if name == "same inputs" {
			if other != base {
				t.Errorf("%s: fingerprint not deterministic", name)
			}
			continue
		}
		if other == base {
			t.Errorf("%s: collided with base fingerprint", name)
		}
	}
}

func TestGetOrComputeRoundTripsDisk(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"detection_rate":0.9}`)
	key := Fingerprint(CodeSalt, []byte("cfg"))

	c := mustNew(t, Config{Dir: dir})
	got, hit, err := c.GetOrCompute(key, func() ([]byte, error) { return payload, nil })
	if err != nil || hit || !bytes.Equal(got, payload) {
		t.Fatalf("cold lookup: hit=%v err=%v data=%q", hit, err, got)
	}

	// A fresh Cache over the same dir (new process) must hit from disk
	// with the exact bytes.
	c2 := mustNew(t, Config{Dir: dir})
	got, hit, err = c2.GetOrCompute(key, func() ([]byte, error) {
		t.Fatal("warm lookup recomputed")
		return nil, nil
	})
	if err != nil || !hit || !bytes.Equal(got, payload) {
		t.Fatalf("warm lookup: hit=%v err=%v data=%q", hit, err, got)
	}
	s := c2.Stats()
	if s.DiskHits != 1 || s.Hits != 1 || s.Misses != 0 {
		t.Errorf("warm stats wrong: %+v", s)
	}
}

// corruptions maps each on-disk failure mode to a mutation of the entry
// file. Every mutated entry must read as a miss and recompute — never an
// error, never wrong bytes.
func corruptions() map[string]func([]byte) []byte {
	return map[string]func([]byte) []byte{
		"truncated header":  func(raw []byte) []byte { return raw[:diskHeaderLen/2] },
		"truncated payload": func(raw []byte) []byte { return raw[:len(raw)-1] },
		"empty file":        func([]byte) []byte { return nil },
		"flipped payload bit": func(raw []byte) []byte {
			raw[len(raw)-1] ^= 0x01
			return raw
		},
		"flipped checksum bit": func(raw []byte) []byte {
			raw[48] ^= 0x80
			return raw
		},
		"alien format version": func(raw []byte) []byte {
			raw[7] = '9'
			return raw
		},
		"wrong key in header": func(raw []byte) []byte {
			raw[8] ^= 0xFF
			return raw
		},
		"trailing garbage": func(raw []byte) []byte { return append(raw, 0xAA) },
	}
}

func TestCorruptEntriesFallBackToRecompute(t *testing.T) {
	for name, corrupt := range corruptions() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			payload := []byte("trial result bytes")
			key := Fingerprint(CodeSalt, []byte(name))

			c := mustNew(t, Config{Dir: dir})
			if _, _, err := c.GetOrCompute(key, func() ([]byte, error) { return payload, nil }); err != nil {
				t.Fatal(err)
			}
			path := c.entryPath(key)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			// Fresh cache (no memory copy): the corrupt entry must be
			// rejected and the computation re-run.
			c2 := mustNew(t, Config{Dir: dir})
			recomputed := false
			got, hit, err := c2.GetOrCompute(key, func() ([]byte, error) {
				recomputed = true
				return payload, nil
			})
			if err != nil {
				t.Fatalf("corrupt entry surfaced an error: %v", err)
			}
			if hit || !recomputed {
				t.Errorf("corrupt entry served as a hit (hit=%v recomputed=%v)", hit, recomputed)
			}
			if !bytes.Equal(got, payload) {
				t.Errorf("wrong bytes after corruption: %q", got)
			}
			if s := c2.Stats(); s.CorruptEntries != 1 {
				t.Errorf("corruption not counted: %+v", s)
			}

			// The recompute must have replaced the entry with a valid one.
			c3 := mustNew(t, Config{Dir: dir})
			if _, hit, _ := c3.GetOrCompute(key, func() ([]byte, error) { return payload, nil }); !hit {
				t.Error("recomputed entry was not re-persisted")
			}
		})
	}
}

// FuzzEntryBytes writes arbitrary bytes as the on-disk entry for a key
// and reads the key through a fresh cache. GetOrCompute must not panic
// or fail; it must serve the payload as a hit exactly when the bytes are
// the entry encodeEntry writes for it, and otherwise recompute and count
// the rejected entry in CorruptEntries.
func FuzzEntryBytes(f *testing.F) {
	key := Fingerprint(CodeSalt, []byte("fuzz"))
	valid := encodeEntry(key, []byte("trial result bytes"))
	f.Add(valid)
	for _, corrupt := range corruptions() {
		f.Add(corrupt(bytes.Clone(valid)))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, raw []byte) {
		c := mustNew(t, Config{Dir: dir}) // an empty memory tier
		path := c.entryPath(key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		recomputed := []byte("recomputed")
		got, hit, err := c.GetOrCompute(key, func() ([]byte, error) { return recomputed, nil })
		if err != nil {
			t.Fatalf("entry bytes surfaced an error: %v", err)
		}
		stored := raw[min(len(raw), diskHeaderLen):]
		corrupt := c.Stats().CorruptEntries
		if bytes.Equal(raw, encodeEntry(key, stored)) {
			if !hit || !bytes.Equal(got, stored) || corrupt != 0 {
				t.Errorf("valid entry: hit=%v got %q, corrupt entries %d; want a hit on %q", hit, got, corrupt, stored)
			}
			return
		}
		if hit || !bytes.Equal(got, recomputed) || corrupt != 1 {
			t.Errorf("invalid entry: hit=%v got %q, corrupt entries %d; want %q recomputed and 1 corrupt",
				hit, got, corrupt, recomputed)
		}
	})
}

func TestStaleCodeSaltMisses(t *testing.T) {
	dir := t.TempDir()
	c := mustNew(t, Config{Dir: dir})
	cfg := []byte("config")

	old := Fingerprint("beaconsec-trials-v0", cfg)
	c.Put(old, []byte("old-version result"))

	recomputed := false
	got, hit, err := c.GetOrCompute(Fingerprint(CodeSalt, cfg), func() ([]byte, error) {
		recomputed = true
		return []byte("new-version result"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hit || !recomputed || string(got) != "new-version result" {
		t.Errorf("stale salt served old entry: hit=%v recomputed=%v data=%q", hit, recomputed, got)
	}
}

// TestSingleFlightSharesOneComputation races many goroutines on one
// fingerprint: exactly one may compute, the rest must wait and share the
// identical bytes. Run under -race.
func TestSingleFlightSharesOneComputation(t *testing.T) {
	c := mustNew(t, Config{})
	key := Fingerprint(CodeSalt, []byte("shared"))
	var computes atomic.Int64
	gate := make(chan struct{})

	const waiters = 16
	results := make([][]byte, waiters)
	hits := make([]bool, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			data, hit, err := c.GetOrCompute(key, func() ([]byte, error) {
				computes.Add(1)
				return []byte("the one result"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], hits[i] = data, hit
		}(i)
	}
	close(gate)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	sharedHits := 0
	for i := range results {
		if string(results[i]) != "the one result" {
			t.Fatalf("goroutine %d got %q", i, results[i])
		}
		if hits[i] {
			sharedHits++
		}
	}
	if sharedHits != waiters-1 {
		t.Errorf("%d shared hits, want %d", sharedHits, waiters-1)
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != waiters-1 {
		t.Errorf("stats wrong after single-flight: %+v", s)
	}
}

// TestSingleFlightErrorReachesAllWaiters pins error semantics: a failed
// flight propagates its error to every waiter and stores nothing, so the
// next lookup recomputes.
func TestSingleFlightErrorReachesAllWaiters(t *testing.T) {
	c := mustNew(t, Config{})
	key := Fingerprint(CodeSalt, []byte("failing"))
	boom := errors.New("simulated trial failure")
	started := make(chan struct{})
	release := make(chan struct{})

	var leaderErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, leaderErr = c.GetOrCompute(key, func() ([]byte, error) {
			close(started)
			<-release
			return nil, boom
		})
	}()
	<-started
	var wg sync.WaitGroup
	errsCh := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.GetOrCompute(key, func() ([]byte, error) { return nil, boom })
			errsCh <- err
		}()
	}
	close(release)
	<-done
	wg.Wait()
	close(errsCh)
	if !errors.Is(leaderErr, boom) {
		t.Errorf("leader error %v", leaderErr)
	}
	for err := range errsCh {
		if !errors.Is(err, boom) {
			t.Errorf("waiter error %v, want %v", err, boom)
		}
	}

	// Nothing stored: the next lookup must recompute (and can succeed).
	got, hit, err := c.GetOrCompute(key, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(got) != "ok" {
		t.Errorf("post-failure lookup: %q hit=%v err=%v", got, hit, err)
	}
}

func TestConcurrentDistinctKeysUnderRace(t *testing.T) {
	c := mustNew(t, Config{Dir: t.TempDir(), MaxMemEntries: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := Fingerprint(CodeSalt, []byte{byte(i % 16)})
				want := fmt.Sprintf("result-%d", i%16)
				got, _, err := c.GetOrCompute(key, func() ([]byte, error) {
					return []byte(want), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if string(got) != want {
					t.Errorf("key %d served %q, want %q", i%16, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestLRUEvictsToDiskNotOblivion(t *testing.T) {
	dir := t.TempDir()
	c := mustNew(t, Config{Dir: dir, MaxMemEntries: 2})
	keys := make([]Key, 3)
	for i := range keys {
		keys[i] = Fingerprint(CodeSalt, []byte{byte(i)})
		c.Put(keys[i], []byte{byte(i)})
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	// The evicted entry (keys[0], oldest) is gone from memory but must
	// still be served — from disk.
	data, ok := c.get(keys[0])
	if !ok || !bytes.Equal(data, []byte{0}) {
		t.Fatalf("evicted entry lost: ok=%v data=%v", ok, data)
	}
	if s := c.Stats(); s.DiskHits != 1 {
		t.Errorf("evicted entry not served from disk: %+v", s)
	}
}

func TestMemoryOnlyCacheSkipsDisk(t *testing.T) {
	c := mustNew(t, Config{})
	key := Fingerprint(CodeSalt, []byte("mem"))
	c.Put(key, []byte("data"))
	if data, ok := c.get(key); !ok || string(data) != "data" {
		t.Fatalf("memory-only lookup failed: ok=%v data=%q", ok, data)
	}
	if s := c.Stats(); s.BytesWritten != 0 || s.WriteErrors != 0 {
		t.Errorf("memory-only cache touched disk: %+v", s)
	}
}

func TestNewRejectsUnwritableDir(t *testing.T) {
	// A path under a regular file can never be a directory.
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Dir: filepath.Join(file, "cache")}); err == nil {
		t.Fatal("New accepted a directory path under a regular file")
	}
}

func TestDiskWriteFailureStillServes(t *testing.T) {
	dir := t.TempDir()
	c := mustNew(t, Config{Dir: dir})
	// Make the shard directory un-creatable by occupying its name with
	// a file.
	key := Fingerprint(CodeSalt, []byte("unwritable"))
	shard := filepath.Dir(c.entryPath(key))
	if err := os.WriteFile(shard, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, hit, err := c.GetOrCompute(key, func() ([]byte, error) { return []byte("r"), nil })
	if err != nil || hit || string(got) != "r" {
		t.Fatalf("write-failure lookup: %q hit=%v err=%v", got, hit, err)
	}
	if s := c.Stats(); s.WriteErrors != 1 {
		t.Errorf("write failure not counted: %+v", s)
	}
	// Served from memory on the next lookup despite the failed persist.
	if _, hit, _ := c.GetOrCompute(key, func() ([]byte, error) { return []byte("r"), nil }); !hit {
		t.Error("memory copy lost after disk write failure")
	}
}
