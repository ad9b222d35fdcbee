package crypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
)

// refMAC is the stdlib HMAC-SHA256 the zero-alloc path must match
// bit-for-bit.
func refMAC(k Key, msg []byte) []byte {
	h := hmac.New(sha256.New, k[:])
	h.Write(msg)
	return h.Sum(nil)
}

func TestSignMatchesStdlibHMAC(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	keys := make([]Key, 8)
	for i := range keys {
		rnd.Read(keys[i][:])
	}
	for trial := 0; trial < 500; trial++ {
		// Reusing keys across trials exercises the midstate-cache hit
		// path; fresh keys exercise the miss path.
		var k Key
		if trial%3 == 0 {
			rnd.Read(k[:])
		} else {
			k = keys[rnd.Intn(len(keys))]
		}
		msg := make([]byte, rnd.Intn(200))
		rnd.Read(msg)
		got := Sign(k, msg)
		want := refMAC(k, msg)
		if !bytes.Equal(got[:], want[:TagSize]) {
			t.Fatalf("trial %d: Sign = %x, stdlib hmac = %x", trial, got, want[:TagSize])
		}
		if !Verify(k, msg, got) {
			t.Fatalf("trial %d: Verify rejected own tag", trial)
		}
	}
}

func TestKDFMatchesStdlibHMAC(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		var k Key
		rnd.Read(k[:])
		context := make([][]byte, rnd.Intn(4))
		for i := range context {
			context[i] = make([]byte, rnd.Intn(40))
			rnd.Read(context[i])
		}
		// Reference: HMAC over the length-prefixed concatenation.
		h := hmac.New(sha256.New, k[:])
		var lenBuf [4]byte
		for _, c := range context {
			binary.BigEndian.PutUint32(lenBuf[:], uint32(len(c)))
			h.Write(lenBuf[:])
			h.Write(c)
		}
		var want Key
		copy(want[:], h.Sum(nil))
		if got := KDF(k, context...); got != want {
			t.Fatalf("trial %d: KDF = %x, reference = %x", trial, got, want)
		}
	}
}

// TestMACCacheEviction drives one state's key cache past macCacheMax
// and checks both the bound and post-eviction correctness.
func TestMACCacheEviction(t *testing.T) {
	s := statePool.Get().(*macState)
	defer statePool.Put(s)
	var k Key
	for i := 0; i < macCacheMax+100; i++ {
		binary.BigEndian.PutUint32(k[:4], uint32(i))
		s.entry(k)
		if len(s.cache) > macCacheMax {
			t.Fatalf("cache grew to %d entries, bound is %d", len(s.cache), macCacheMax)
		}
	}
	// A key inserted before the eviction must still produce correct
	// output when rebuilt.
	binary.BigEndian.PutUint32(k[:4], 0)
	msg := []byte("after eviction")
	got := Sign(k, msg)
	if want := refMAC(k, msg); !bytes.Equal(got[:], want[:TagSize]) {
		t.Fatalf("post-eviction Sign = %x, want %x", got, want[:TagSize])
	}
}

// TestSignVerifyConcurrent exercises the state pool under the race
// detector, mirroring the experiment harness running many scenarios in
// parallel through these package functions.
func TestSignVerifyConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)))
			var k Key
			msg := make([]byte, 64)
			for i := 0; i < 200; i++ {
				rnd.Read(k[:16]) // shared key space across goroutines
				rnd.Read(msg)
				tag := Sign(k, msg)
				if !Verify(k, msg, tag) {
					t.Errorf("goroutine %d: Verify rejected own tag", g)
					return
				}
				if want := refMAC(k, msg); !bytes.Equal(tag[:], want[:TagSize]) {
					t.Errorf("goroutine %d: Sign diverged from stdlib", g)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// raceEnabled is set by race_test.go under -race builds.
var raceEnabled bool

// TestSignVerifyKDFZeroAlloc pins the point of the rewrite: on a warm
// state, signing, verifying, and deriving keys — pairwise keys
// included — do zero heap allocations.
func TestSignVerifyKDFZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool puts; allocation pin not meaningful")
	}
	var k Key
	k[0] = 7
	msg := []byte("zero-alloc hot path")
	// The context slice is hoisted: a literal `KDF(k, msg)` call site
	// allocates the variadic [][]byte itself, which is the caller's
	// allocation, not KDF's.
	ctx := [][]byte{msg}
	m := NewMaster([]byte("zero-alloc"))
	tag := Sign(k, msg) // warm the pool and the keys' midstate caches
	KDF(k, ctx...)
	m.Pairwise(3, 9)
	if avg := testing.AllocsPerRun(100, func() { Sign(k, msg) }); avg != 0 {
		t.Errorf("Sign allocates %.1f times per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { Verify(k, msg, tag) }); avg != 0 {
		t.Errorf("Verify allocates %.1f times per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { KDF(k, ctx...) }); avg != 0 {
		t.Errorf("KDF allocates %.1f times per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { m.Pairwise(9, 3) }); avg != 0 {
		t.Errorf("Pairwise allocates %.1f times per op, want 0", avg)
	}
}

func BenchmarkVerify(b *testing.B) {
	var k Key
	msg := make([]byte, 32)
	tag := Sign(k, msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Verify(k, msg, tag) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkKDF(b *testing.B) {
	var k Key
	ctx := []byte("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		KDF(k, ctx)
	}
}

// BenchmarkSignColdKeys measures the cache-miss path: every op pays the
// two pad-block compressions.
func BenchmarkSignColdKeys(b *testing.B) {
	msg := make([]byte, 32)
	var k Key
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(k[:8], uint64(i))
		Sign(k, msg)
	}
}
