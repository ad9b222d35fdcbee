package crypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"beaconsec/internal/ident"
)

// refMAC is the stdlib HMAC-SHA256 the zero-alloc path must match
// bit-for-bit.
func refMAC(k Key, msg []byte) []byte {
	h := hmac.New(sha256.New, k[:])
	h.Write(msg)
	return h.Sum(nil)
}

// TestSignMatchesStdlibHMAC runs every message length from 0 to 200
// bytes, which crosses sha256's 55/56-byte padding boundary and takes
// the inner hash past two blocks.
func TestSignMatchesStdlibHMAC(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	keys := make([]Key, 4)
	for i := range keys {
		rnd.Read(keys[i][:])
	}
	for n := 0; n <= 200; n++ {
		msg := make([]byte, n)
		rnd.Read(msg)
		for i, k := range keys {
			m := NewMAC(k)
			got := m.Sign(msg)
			want := refMAC(k, msg)
			if !bytes.Equal(got[:], want[:TagSize]) {
				t.Fatalf("len %d key %d: Sign = %x, stdlib hmac = %x", n, i, got, want[:TagSize])
			}
			if !m.Verify(msg, got) {
				t.Fatalf("len %d key %d: Verify rejected own tag", n, i)
			}
		}
	}
}

// TestKDFMatchesStdlibHMAC pins KDF to the HMAC of its length-prefixed
// context, and the master's keys to KDF under its secret.
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

	seed := []byte("kdf-pin")
	secret := KDF(Key{}, []byte("beaconsec/master"), seed)
	m := NewMaster(seed)
	be16 := func(ids ...ident.NodeID) []byte {
		var b []byte
		for _, id := range ids {
			b = binary.BigEndian.AppendUint16(b, uint16(id))
		}
		return b
	}
	if got, want := m.BroadcastKey(), KDF(secret, []byte("broadcast")); got != want {
		t.Errorf("BroadcastKey = %x, KDF of the secret = %x", got, want)
	}
	for _, p := range [][2]ident.NodeID{{1, 2}, {2, 1}, {900, 9}, {1, 0xFFFD}} {
		lo, hi := min(p[0], p[1]), max(p[0], p[1])
		want := KDF(secret, []byte("pairwise"), be16(lo, hi))
		if got := m.Pairwise(p[0], p[1]); got != want {
			t.Errorf("Pairwise%v = %x, KDF of the secret = %x", p, got, want)
		}
	}
	for _, id := range []ident.NodeID{1, 3, 4, 0xFFFD} {
		want := KDF(secret, []byte("base-station"), be16(id))
		if got := m.BaseStationKey(id); got != want {
			t.Errorf("BaseStationKey(%v) = %x, KDF of the secret = %x", id, got, want)
		}
	}
}

// TestSignVerifyConcurrent exercises the state pool under the race
// detector, mirroring the experiment harness running many scenarios in
// parallel through these functions.
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
				m := NewMAC(k)
				tag := m.Sign(msg)
				if !m.Verify(msg, tag) {
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

// TestKeyringPairDerivedOnce pins the keyring's contract: one stable MAC
// per unordered pair, shared by both ends, that survives the ring's
// growth.
func TestKeyringPairDerivedOnce(t *testing.T) {
	m := NewMaster([]byte("ring"))
	r := NewKeyring(m)
	first := r.Pair(7, 3)
	if r.Pair(3, 7) != first {
		t.Fatal("Pair(7, 3) and Pair(3, 7) are different MACs")
	}
	if *first != NewMAC(m.Pairwise(3, 7)) {
		t.Fatal("Pair(7, 3) is not the MAC of Master.Pairwise(3, 7)")
	}
	want := *first

	// Random pairs over 120 identities, in both orders: about 7k
	// distinct pairs, enough to grow the ring through 14 chunks, and
	// many repeats.
	rnd := rand.New(rand.NewSource(3))
	held := map[[2]ident.NodeID]*MAC{{3, 7}: first}
	owner := map[*MAC][2]ident.NodeID{first: {3, 7}}
	for i := 0; i < 20000; i++ {
		a, b := ident.NodeID(1+rnd.Intn(120)), ident.NodeID(1+rnd.Intn(120))
		if a == b {
			continue
		}
		got := r.Pair(a, b)
		pair := [2]ident.NodeID{min(a, b), max(a, b)}
		if p, ok := held[pair]; ok {
			if got != p {
				t.Fatalf("Pair(%v, %v) moved or was derived again", a, b)
			}
			continue
		}
		if prev, dup := owner[got]; dup {
			t.Fatalf("pairs %v and %v share one MAC slot", prev, pair)
		}
		held[pair], owner[got] = got, pair
	}
	if len(r.chunks) < 3 {
		t.Fatalf("ring grew to %d chunks; the test must cross several", len(r.chunks))
	}
	if *first != want {
		t.Fatal("a MAC taken before the ring grew changed")
	}
	for pair, p := range held {
		if *p != NewMAC(m.Pairwise(pair[0], pair[1])) {
			t.Fatalf("MAC of %v does not match its pairwise key", pair)
		}
	}
	if n := len(r.index); n != len(held) {
		t.Fatalf("ring indexes %d pairs, want one per distinct pair (%d)", n, len(held))
	}
	if full := len(r.chunks) * ringChunk; full < len(held) || full-len(held) >= ringChunk {
		t.Fatalf("%d chunks hold %d pairs: storage is not one slot per pair", len(r.chunks), len(held))
	}
}

// raceEnabled is set by race_test.go under -race builds.
var raceEnabled bool

// TestSignVerifyKDFZeroAlloc pins the point of the MAC: on a warm pool,
// signing, verifying and deriving keys — pairwise keys included — do
// zero heap allocations, and so does a keyring hit.
func TestSignVerifyKDFZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool puts; allocation pin not meaningful")
	}
	var k Key
	k[0] = 7
	mac := NewMAC(k)
	msg := []byte("zero-alloc hot path")
	// The context slice is hoisted: a literal `KDF(k, msg)` call site
	// allocates the variadic [][]byte itself, which is the caller's
	// allocation, not KDF's.
	ctx := [][]byte{msg}
	m := NewMaster([]byte("zero-alloc"))
	r := NewKeyring(m)
	tag := mac.Sign(msg) // warm the pool and the ring
	KDF(k, ctx...)
	r.Pair(3, 9)
	if avg := testing.AllocsPerRun(100, func() { mac.Sign(msg) }); avg != 0 {
		t.Errorf("MAC.Sign allocates %.1f times per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { mac.Verify(msg, tag) }); avg != 0 {
		t.Errorf("MAC.Verify allocates %.1f times per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { KDF(k, ctx...) }); avg != 0 {
		t.Errorf("KDF allocates %.1f times per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { m.Pairwise(9, 3) }); avg != 0 {
		t.Errorf("Pairwise allocates %.1f times per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { r.Pair(9, 3) }); avg != 0 {
		t.Errorf("warm Keyring.Pair allocates %.1f times per op, want 0", avg)
	}
}

func BenchmarkVerify(b *testing.B) {
	m := NewMAC(Key{})
	msg := make([]byte, 32)
	tag := m.Sign(msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.Verify(msg, tag) {
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
