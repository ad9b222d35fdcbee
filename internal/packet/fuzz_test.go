package packet

import (
	"testing"
	"testing/quick"

	"beaconsec/internal/crypto"
	"beaconsec/internal/rng"
)

// TestDecodeNeverPanicsOnRandomBytes feeds the decoder arbitrary byte
// strings: it must reject them with an error, never panic, never accept.
// Accepting would require forging an HMAC tag, which random bytes do with
// probability 2^-64 per attempt.
func TestDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	var key crypto.Key
	key[9] = 0x77
	k := macOf(key)
	f := func(data []byte) bool {
		pkt, err := Decode(data, k)
		if err == nil {
			t.Logf("random bytes decoded as %+v", pkt)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDecodeNeverPanicsOnMutatedPackets mutates valid packets at random
// positions and checks the decoder's composure.
func TestDecodeNeverPanicsOnMutatedPackets(t *testing.T) {
	var key crypto.Key
	key[1] = 0x31
	k := macOf(key)
	src := rng.New(41)
	base, err := Encode(3, 7, 11, BeaconReply{Turnaround: 5, Echo: 2}, k)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5000; trial++ {
		mut := append([]byte(nil), base...)
		// 1-4 random byte mutations.
		for n := 0; n <= src.Intn(4); n++ {
			mut[src.Intn(len(mut))] = byte(src.Uint64())
		}
		// Random truncation or extension occasionally.
		switch src.Intn(4) {
		case 0:
			mut = mut[:src.Intn(len(mut)+1)]
		case 1:
			mut = append(mut, byte(src.Uint64()))
		}
		if pkt, err := Decode(mut, k); err == nil {
			// Only acceptable if the mutation left the bytes identical.
			if string(mut) != string(base) {
				t.Fatalf("trial %d: mutated packet accepted: %+v", trial, pkt)
			}
		}
	}
}

// TestPeekHeaderNeverPanics exercises the unauthenticated fast path.
func TestPeekHeaderNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = PeekHeader(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
