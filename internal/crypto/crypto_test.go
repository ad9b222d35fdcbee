package crypto

import (
	"testing"
	"testing/quick"

	"beaconsec/internal/ident"
)

func TestKDFDeterministicAndContextBound(t *testing.T) {
	var k Key
	k[0] = 1
	a := KDF(k, []byte("ctx1"))
	b := KDF(k, []byte("ctx1"))
	c := KDF(k, []byte("ctx2"))
	if a != b {
		t.Error("KDF not deterministic")
	}
	if a == c {
		t.Error("KDF ignores context")
	}
}

func TestKDFLengthPrefixing(t *testing.T) {
	var k Key
	a := KDF(k, []byte("ab"), []byte("c"))
	b := KDF(k, []byte("a"), []byte("bc"))
	if a == b {
		t.Error("KDF context concatenation is ambiguous")
	}
}

func TestSignVerify(t *testing.T) {
	var k Key
	k[3] = 9
	m := NewMAC(k)
	msg := []byte("beacon packet")
	tag := m.Sign(msg)
	if !m.Verify(msg, tag) {
		t.Fatal("Verify rejects valid tag")
	}
	if m.Verify([]byte("beacon packeT"), tag) {
		t.Error("Verify accepts modified message")
	}
	var k2 Key
	k2[3] = 10
	m2 := NewMAC(k2)
	if m2.Verify(msg, tag) {
		t.Error("Verify accepts tag under wrong key")
	}
	tag[0] ^= 1
	if m.Verify(msg, tag) {
		t.Error("Verify accepts modified tag")
	}
}

func TestSignVerifyProperty(t *testing.T) {
	var k Key
	k[7] = 0x42
	m := NewMAC(k)
	f := func(msg []byte) bool {
		return m.Verify(msg, m.Sign(msg))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPairwiseSymmetry(t *testing.T) {
	m := NewMaster([]byte("seed"))
	f := func(a, b uint16) bool {
		ka := m.Pairwise(ident.NodeID(a), ident.NodeID(b))
		kb := m.Pairwise(ident.NodeID(b), ident.NodeID(a))
		return ka == kb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPairwiseUnique(t *testing.T) {
	m := NewMaster([]byte("seed"))
	seen := make(map[Key][2]ident.NodeID)
	for a := ident.NodeID(1); a <= 40; a++ {
		for b := a + 1; b <= 40; b++ {
			k := m.Pairwise(a, b)
			if prev, dup := seen[k]; dup {
				t.Fatalf("pairwise collision: (%v,%v) and (%v,%v)", a, b, prev[0], prev[1])
			}
			seen[k] = [2]ident.NodeID{a, b}
		}
	}
}

func TestDistinctMastersDistinctKeys(t *testing.T) {
	m1 := NewMaster([]byte("seed-1"))
	m2 := NewMaster([]byte("seed-2"))
	if m1.Pairwise(1, 2) == m2.Pairwise(1, 2) {
		t.Error("different masters produced the same pairwise key")
	}
}

func TestBaseStationKeysUnique(t *testing.T) {
	m := NewMaster([]byte("seed"))
	if m.BaseStationKey(1) == m.BaseStationKey(2) {
		t.Error("base-station keys collide across nodes")
	}
	if m.BaseStationKey(1) == m.Pairwise(1, 2) {
		t.Error("base-station key collides with a pairwise key")
	}
}

func TestStoreIdentities(t *testing.T) {
	s := NewStore(NewKeyring(NewMaster([]byte("seed"))), 5, 900, 901)
	if !s.Owns(5) || !s.Owns(900) || !s.Owns(901) {
		t.Error("store does not own provisioned identities")
	}
	if s.Owns(6) {
		t.Error("store owns unprovisioned identity")
	}
	ids := s.Identities()
	if len(ids) != 3 || ids[0] != 5 {
		t.Errorf("Identities() = %v", ids)
	}
	ids[0] = 99 // callers must not be able to mutate internal state
	if !s.Owns(5) {
		t.Error("Identities() leaked internal slice")
	}
}

func TestStorePairwiseMatchesPeer(t *testing.T) {
	m := NewMaster([]byte("seed"))
	ring := NewKeyring(m)
	alice := NewStore(ring, 5)
	bob := NewStore(ring, 9)
	if alice.Pair(5, 9) != bob.Pair(9, 5) {
		t.Error("the two ends of a pair hold different MACs")
	}
	if *alice.Pair(5, 9) != NewMAC(m.Pairwise(5, 9)) {
		t.Error("store MAC is not the pairwise key's")
	}
	if *alice.Broadcast() != NewMAC(m.BroadcastKey()) {
		t.Error("store broadcast MAC is not the broadcast key's")
	}
	if alice.Lookup(5, ident.Broadcast) != alice.Broadcast() {
		t.Error("Lookup toward the broadcast address is not the broadcast MAC")
	}
}

func TestStorePairwiseDetectingIdentity(t *testing.T) {
	m := NewMaster([]byte("seed"))
	ring := NewKeyring(m)
	// Beacon node 5 also holds detecting pseudonym 900.
	beacon := NewStore(ring, 5, 900)
	target := NewStore(ring, 9)
	// Probing under the pseudonym must use the MAC the target holds for
	// "node 900" — the pseudonym is cryptographically a real node.
	if beacon.Pair(900, 9) != target.Pair(9, 900) {
		t.Error("detecting pseudonym MAC mismatch")
	}
	if *beacon.Pair(900, 9) != NewMAC(m.Pairwise(900, 9)) {
		t.Error("detecting pseudonym MAC is not the pairwise key's")
	}
}

func TestStoreUnownedIdentityPanics(t *testing.T) {
	s := NewStore(NewKeyring(NewMaster([]byte("seed"))), 5)
	if s.Lookup(6, 9) != nil {
		t.Error("Lookup under unowned identity returned a MAC")
	}
	if s.Lookup(5, 9) != s.Pair(5, 9) {
		t.Error("Lookup and Pair disagree for an owned identity")
	}
	defer func() {
		if recover() == nil {
			t.Error("Pair under unowned identity did not panic")
		}
	}()
	s.Pair(6, 9)
}

func BenchmarkSign(b *testing.B) {
	m := NewMAC(Key{})
	msg := make([]byte, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Sign(msg)
	}
}

func BenchmarkPairwise(b *testing.B) {
	m := NewMaster([]byte("seed"))
	for i := 0; i < b.N; i++ {
		m.Pairwise(ident.NodeID(i&0xff), ident.NodeID(i>>8&0xff))
	}
}

// BenchmarkKeyringPair measures a run's two kinds of pair lookups: a
// hit, which every packet after a pair's first pays, and a miss, which
// derives the pair's MAC and stores it. The miss leg starts a fresh ring
// every 16k pairs, about a paper-scale run's count, so its allocations
// are the storage growth a run amortises.
func BenchmarkKeyringPair(b *testing.B) {
	m := NewMaster([]byte("seed"))
	b.Run("hit", func(b *testing.B) {
		r := NewKeyring(m)
		for i := 0; i < 256; i++ {
			r.Pair(ident.NodeID(i), ident.NodeID(i+1))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Pair(ident.NodeID(i&0xff+1), ident.NodeID(i&0xff))
		}
	})
	b.Run("miss", func(b *testing.B) {
		const perRing = 1 << 14
		var r *Keyring
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%perRing == 0 {
				r = NewKeyring(m)
			}
			r.Pair(ident.NodeID(1+i%perRing), 0x8000)
		}
	})
}
