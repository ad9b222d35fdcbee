package packet

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"beaconsec/internal/crypto"
	"beaconsec/internal/geo"
	"beaconsec/internal/ident"
)

// testMAC returns the MAC the codec tests sign and verify under.
func testMAC() *crypto.MAC {
	var k crypto.Key
	k[0] = 0xAB
	return macOf(k)
}

// macOf returns k's MAC.
func macOf(k crypto.Key) *crypto.MAC {
	m := crypto.NewMAC(k)
	return &m
}

func roundTrip(t *testing.T, payload any) Packet {
	t.Helper()
	k := testMAC()
	data, err := Encode(3, 7, 42, payload, k)
	if err != nil {
		t.Fatalf("Encode(%T): %v", payload, err)
	}
	if len(data) > MaxSize {
		t.Fatalf("encoded %T is %d bytes, exceeds MaxSize %d", payload, len(data), MaxSize)
	}
	pkt, err := Decode(data, k)
	if err != nil {
		t.Fatalf("Decode(%T): %v", payload, err)
	}
	if pkt.Header.Src != 3 || pkt.Header.Dst != 7 || pkt.Header.Seq != 42 {
		t.Fatalf("header mangled: %+v", pkt.Header)
	}
	return pkt
}

func TestRoundTripAllTypes(t *testing.T) {
	tests := []struct {
		name    string
		payload any
	}{
		{"hello", Hello{}},
		{"request", BeaconRequest{}},
		{"reply", BeaconReply{Loc: geo.Point{X: 123.5, Y: -7.25}, Turnaround: 9999, Echo: 17}},
		{"alert", Alert{Target: 55}},
		{"alert-uplink", AlertUplink{Target: 57}},
		{"revocation-query", RevocationQuery{Target: 58}},
		{"revocation-status", RevocationStatus{Target: 58, Outcome: 2, Revoked: true}},
		{"revocation-status-clear", RevocationStatus{Target: 59}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			pkt := roundTrip(t, tt.payload)
			if pkt.Payload != tt.payload {
				t.Errorf("payload = %#v, want %#v", pkt.Payload, tt.payload)
			}
		})
	}
}

func TestRoundTripReplyProperty(t *testing.T) {
	k := testMAC()
	f := func(x, y float64, turn uint32, echo, seq uint16, src, dst uint16) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true // NaN != NaN; locations are never NaN in practice
		}
		in := BeaconReply{Loc: geo.Point{X: x, Y: y}, Turnaround: turn, Echo: echo}
		data, err := Encode(ident.NodeID(src), ident.NodeID(dst), seq, in, k)
		if err != nil {
			return false
		}
		pkt, err := Decode(data, k)
		if err != nil {
			return false
		}
		out, ok := pkt.Payload.(BeaconReply)
		return ok && out == in &&
			pkt.Header.Src == ident.NodeID(src) &&
			pkt.Header.Dst == ident.NodeID(dst) &&
			pkt.Header.Seq == seq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsWrongKey(t *testing.T) {
	k := testMAC()
	data, err := Encode(1, 2, 3, Alert{Target: 9}, k)
	if err != nil {
		t.Fatal(err)
	}
	var wrong crypto.Key
	wrong[0] = 0xCD
	if _, err := Decode(data, macOf(wrong)); !errors.Is(err, ErrBadTag) {
		t.Errorf("Decode with wrong key = %v, want ErrBadTag", err)
	}
}

func TestDecodeRejectsTamperedBit(t *testing.T) {
	k := testMAC()
	data, err := Encode(1, 2, 3, BeaconReply{Loc: geo.Point{X: 10, Y: 20}, Echo: 1}, k)
	if err != nil {
		t.Fatal(err)
	}
	// Flip every byte position in turn: any modification must fail
	// authentication (or header validation), never decode successfully.
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x01
		if _, err := Decode(mut, k); err == nil {
			t.Fatalf("bit flip at byte %d decoded successfully", i)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	k := testMAC()
	data, err := Encode(1, 2, 3, BeaconReply{Loc: geo.Point{X: 1, Y: 2}}, k)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n], k); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
}

func TestDecodeRejectsUnknownType(t *testing.T) {
	k := testMAC()
	data, err := Encode(1, 2, 3, Hello{}, k)
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 200
	if _, err := Decode(data, k); !errors.Is(err, ErrBadType) {
		t.Errorf("unknown type error = %v, want ErrBadType", err)
	}
}

func TestEncodeRejectsUnknownPayload(t *testing.T) {
	if _, err := Encode(1, 2, 3, struct{ X int }{1}, testMAC()); !errors.Is(err, ErrUnencodable) {
		t.Errorf("Encode(unknown) = %v, want ErrUnencodable", err)
	}
}

func TestPeekHeader(t *testing.T) {
	k := testMAC()
	data, err := Encode(9, ident.Broadcast, 77, Hello{}, k)
	if err != nil {
		t.Fatal(err)
	}
	h, err := PeekHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != TypeHello || h.Src != 9 || h.Dst != ident.Broadcast || h.Seq != 77 {
		t.Errorf("PeekHeader = %+v", h)
	}
	if _, err := PeekHeader(data[:4]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short PeekHeader = %v, want ErrTruncated", err)
	}
	// Every type byte outside the seven types is ErrBadType.
	for b := 0; b < 256; b++ {
		data[0] = byte(b)
		_, err := PeekHeader(data)
		known := Type(b) >= TypeHello && Type(b) <= TypeRevocationStatus
		if known != (err == nil) || (!known && !errors.Is(err, ErrBadType)) {
			t.Errorf("type byte %d: PeekHeader err = %v, known type %v", b, err, known)
		}
	}
}

func TestReplayedBytesDecodeUnderSameKey(t *testing.T) {
	// A verbatim replay of an authentic packet still authenticates — the
	// codec cannot stop replays; that is exactly why the paper needs the
	// RTT and wormhole filters above this layer.
	k := testMAC()
	data, err := Encode(1, 2, 3, BeaconReply{Loc: geo.Point{X: 5, Y: 5}}, k)
	if err != nil {
		t.Fatal(err)
	}
	replay := append([]byte(nil), data...)
	if _, err := Decode(replay, k); err != nil {
		t.Errorf("replayed packet failed to decode: %v", err)
	}
}

func TestTypeString(t *testing.T) {
	// The wire values are 1..7 in this order: the four radio types keep
	// their frames, and the revnet types follow them densely.
	for i, typ := range []Type{TypeHello, TypeBeaconRequest, TypeBeaconReply, TypeAlert, TypeAlertUplink, TypeRevocationQuery, TypeRevocationStatus} {
		if typ != Type(i+1) {
			t.Errorf("%v has wire value %d, want %d", typ, uint8(typ), i+1)
		}
		if typ.String() == "" {
			t.Errorf("empty String for type %d", typ)
		}
	}
	if Type(99).String() != "type(99)" {
		t.Errorf("unknown type String = %q", Type(99).String())
	}
}

func BenchmarkEncodeReply(b *testing.B) {
	k := testMAC()
	payload := BeaconReply{Loc: geo.Point{X: 100, Y: 200}, Turnaround: 13000, Echo: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(1, 2, uint16(i), payload, k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeReply(b *testing.B) {
	k := testMAC()
	data, err := Encode(1, 2, 3, BeaconReply{Loc: geo.Point{X: 100, Y: 200}}, k)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data, k); err != nil {
			b.Fatal(err)
		}
	}
}
