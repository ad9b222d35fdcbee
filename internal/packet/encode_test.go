package packet

import (
	"bytes"
	"testing"

	"beaconsec/internal/crypto"
	"beaconsec/internal/geo"
	"beaconsec/internal/ident"
)

var allPayloads = []any{
	Hello{},
	BeaconRequest{},
	BeaconReply{Loc: geo.Point{X: 123.5, Y: -6.25}, Turnaround: 13000, Echo: 42},
	Alert{Target: 9},
	AlertUplink{Target: 21},
	RevocationQuery{Target: 33},
	RevocationStatus{Target: 21, Outcome: 1, Revoked: true},
}

// Encode encodes and signs one packet into a fresh buffer in two steps,
// body then tag, as the MAC layer does at launch.
func Encode(src, dst ident.NodeID, seq uint16, payload any, mac *crypto.MAC) ([]byte, error) {
	body, err := AppendBody(nil, src, dst, seq, payload)
	if err != nil {
		return nil, err
	}
	return Seal(body, mac), nil
}

// TestEncodeToMatchesEncode pins that EncodeTo and the two-step path
// (AppendBody, then Seal) produce byte-identical wire output for every
// payload type.
func TestEncodeToMatchesEncode(t *testing.T) {
	k := testMAC()
	for _, payload := range allPayloads {
		want, err := Encode(3, 4, 77, payload, k)
		if err != nil {
			t.Fatalf("%T: Encode: %v", payload, err)
		}
		got, err := EncodeTo(nil, 3, 4, 77, payload, k)
		if err != nil {
			t.Fatalf("%T: EncodeTo: %v", payload, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%T: EncodeTo = %x, Encode = %x", payload, got, want)
		}
	}
}

// TestEncodeToAppends pins the append contract: existing bytes in dst
// are preserved and the packet (including its tag, computed over only
// the new bytes) lands after them.
func TestEncodeToAppends(t *testing.T) {
	k := testMAC()
	prefix := []byte{0xde, 0xad}
	buf, err := EncodeTo(append([]byte(nil), prefix...), 1, 2, 3, Alert{Target: 5}, k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:2], prefix) {
		t.Fatalf("prefix clobbered: %x", buf[:2])
	}
	solo, err := Encode(1, 2, 3, Alert{Target: 5}, k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[2:], solo) {
		t.Fatalf("appended packet %x differs from standalone %x", buf[2:], solo)
	}
	if _, err := Decode(buf[2:], k); err != nil {
		t.Fatalf("appended packet does not decode: %v", err)
	}
}

func TestEncodeToRejectsUnknownPayload(t *testing.T) {
	if _, err := EncodeTo(nil, 1, 2, 3, struct{}{}, testMAC()); err == nil {
		t.Fatal("EncodeTo accepted an unencodable payload")
	}
}

// raceEnabled is set by race_test.go under -race builds.
var raceEnabled bool

// TestEncodeToReusedBufferZeroAlloc pins the hot-path contract: with a
// caller-owned buffer of sufficient capacity, encode+sign allocates
// nothing.
func TestEncodeToReusedBufferZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool puts; allocation pin not meaningful")
	}
	k := testMAC()
	// Boxed once: passing a concrete BeaconReply at each call site would
	// charge the interface-conversion allocation to the caller.
	var payload any = BeaconReply{Loc: geo.Point{X: 1, Y: 2}, Turnaround: 3, Echo: 4}
	buf := make([]byte, 0, MaxSize)
	var err error
	buf, err = EncodeTo(buf[:0], 1, 2, 3, payload, k) // warm crypto state
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		buf, err = EncodeTo(buf[:0], ident.NodeID(1), ident.NodeID(2), 3, payload, k)
		if err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("EncodeTo into reused buffer allocates %.1f times per op, want 0", avg)
	}
}

func BenchmarkEncodeToReply(b *testing.B) {
	k := testMAC()
	// Boxed once, as the mac layer's hot path holds it: a concrete
	// struct at the call site would re-box every iteration.
	var payload any = BeaconReply{Loc: geo.Point{X: 100, Y: 200}, Turnaround: 13000, Echo: 3}
	buf := make([]byte, 0, MaxSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = EncodeTo(buf[:0], 1, 2, uint16(i), payload, k)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestPutTurnaroundMatchesEncode pins that writing the turnaround into
// an encoded reply body before sealing it gives the packet Encode gives
// for a reply that carried that turnaround all along.
func TestPutTurnaroundMatchesEncode(t *testing.T) {
	k := testMAC()
	reply := BeaconReply{Loc: geo.Point{X: 3, Y: -4}, Turnaround: 1, Echo: 5}
	body, err := AppendBody(nil, 900, 2, 7, reply)
	if err != nil {
		t.Fatal(err)
	}
	PutTurnaround(body, 0xfedcba98)
	reply.Turnaround = 0xfedcba98
	want, err := Encode(900, 2, 7, reply, k)
	if err != nil {
		t.Fatal(err)
	}
	if got := Seal(body, k); !bytes.Equal(got, want) {
		t.Errorf("sealed body %x, want %x", got, want)
	}
}

// TestAppendBodyKeepsPayloadOnStack pins that encoding a reply into a
// buffer the caller owns allocates nothing: the payload converted to any
// at the call does not escape, so it is not boxed on the heap.
func TestAppendBodyKeepsPayloadOnStack(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs allocation behavior; pin not meaningful")
	}
	k := testMAC()
	var buf [MaxSize]byte
	var echo uint16
	if avg := testing.AllocsPerRun(100, func() {
		echo++
		body, err := AppendBody(buf[:0], 1, 2, echo, BeaconReply{Loc: geo.Point{X: 1}, Echo: echo})
		if err != nil {
			t.Fatal(err)
		}
		Seal(body, k)
	}); avg != 0 {
		t.Errorf("encoding a reply allocates %.1f times", avg)
	}
}
