package packet

// Native Go fuzz targets complementing the testing/quick checks in
// fuzz_test.go. The corpus seeds every wire frame the protocol
// exchanges — hello, detector request/reply, alert and the revnet
// uplink, query and status frames — plus a signed frame of the first
// unassigned type, truncations and flips, so coverage-guided mutation
// starts from the decoder's real input space rather than random bytes.
//
// Run with: go test -fuzz FuzzDecode ./internal/packet/

import (
	"bytes"
	"testing"

	"beaconsec/internal/crypto"
	"beaconsec/internal/geo"
)

// fuzzKey is the MAC of the fixed key fuzz inputs are decoded under.
// The fuzzer cannot forge tags for it, so any accepted input must be a
// (possibly seed-derived) correctly signed frame.
func fuzzKey() *crypto.MAC {
	var k crypto.Key
	for i := range k {
		k[i] = byte(i*7 + 3)
	}
	return macOf(k)
}

// seedFrames encodes one valid frame of every packet type under key,
// plus one correctly signed frame whose type byte is the first value
// past the last type, so only the type check rejects it.
func seedFrames(tb testing.TB, key *crypto.MAC) [][]byte {
	tb.Helper()
	payloads := []any{
		Hello{},
		BeaconRequest{},
		BeaconReply{Loc: geo.Point{X: 512.25, Y: 87.5}, Turnaround: 7_372, Echo: 3},
		Alert{Target: 1009},
		AlertUplink{Target: 77},
		RevocationQuery{Target: 909},
		RevocationStatus{Target: 77, Outcome: 2, Revoked: true},
		RevocationStatus{Target: 12, Outcome: 0, Revoked: false},
	}
	frames := make([][]byte, 0, len(payloads))
	for i, p := range payloads {
		b, err := Encode(5, 1001, uint16(i), p, key)
		if err != nil {
			tb.Fatalf("seed encode %T: %v", p, err)
		}
		frames = append(frames, b)
	}
	body, err := AppendBody(nil, 5, 1001, uint16(len(payloads)), Alert{Target: 42})
	if err != nil {
		tb.Fatal(err)
	}
	body[0] = byte(TypeRevocationStatus + 1)
	return append(frames, Seal(body, key))
}

// FuzzDecode checks the decoder's core guarantees on arbitrary input:
// it never panics, and anything it accepts round-trips byte-identically
// through Encode (so there is exactly one wire form per packet).
func FuzzDecode(f *testing.F) {
	key := fuzzKey()
	for _, frame := range seedFrames(f, key) {
		f.Add(frame)
		f.Add(frame[:len(frame)-crypto.TagSize]) // tagless
		f.Add(frame[:headerSize-1])              // truncated header
		flipped := append([]byte(nil), frame...)
		flipped[0] ^= 0x80 // invalid type, same tag length
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, err := Decode(data, key)
		if err != nil {
			return
		}
		re, err := Encode(pkt.Header.Src, pkt.Header.Dst, pkt.Header.Seq, pkt.Payload, key)
		if err != nil {
			t.Fatalf("accepted packet does not re-encode: %+v: %v", pkt, err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted wire form is not canonical:\n in: %x\nout: %x", data, re)
		}
	})
}

// FuzzPeekHeader checks the unauthenticated fast path never panics and
// stays consistent with full decode: a frame Decode accepts must yield
// the same header from PeekHeader.
func FuzzPeekHeader(f *testing.F) {
	key := fuzzKey()
	for _, frame := range seedFrames(f, key) {
		f.Add(frame)
		for cut := 0; cut < headerSize; cut += 3 {
			f.Add(frame[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := PeekHeader(data)
		pkt, derr := Decode(data, key)
		if derr == nil {
			if err != nil {
				t.Fatalf("Decode accepted what PeekHeader rejected: %v", err)
			}
			if h != pkt.Header {
				t.Fatalf("header mismatch: peek %+v decode %+v", h, pkt.Header)
			}
		}
	})
}
