package packet

// Tests for the revnet wire types (TypeAlertUplink, TypeRevocationQuery,
// TypeRevocationStatus) and the stream-framing helper FrameLen. The
// round-trip/truncation/bad-tag structure mirrors packet_test.go; the
// extra canonicality cases pin the one-wire-form-per-packet invariant the
// fuzz targets rely on.

import (
	"bytes"
	"errors"
	"testing"

	"beaconsec/internal/crypto"
	"beaconsec/internal/ident"
)

var netPayloads = []struct {
	name    string
	payload any
	size    int // encoded payload bytes
}{
	{"alert-uplink", AlertUplink{Target: 1009}, 2},
	{"revocation-query", RevocationQuery{Target: 42}, 2},
	{"status-clear", RevocationStatus{Target: 7}, 4},
	{"status-revoked", RevocationStatus{Target: 7, Outcome: 2, Revoked: true}, 4},
	{"status-outcome-only", RevocationStatus{Target: 65535, Outcome: 255}, 4},
}

func TestNetTypesRoundTrip(t *testing.T) {
	k := testMAC()
	for _, tt := range netPayloads {
		t.Run(tt.name, func(t *testing.T) {
			data, err := Encode(3, ident.BaseStation, 42, tt.payload, k)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if want := headerSize + tt.size + crypto.TagSize; len(data) != want {
				t.Errorf("encoded length %d, want %d", len(data), want)
			}
			pkt, err := Decode(data, k)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if pkt.Payload != tt.payload {
				t.Errorf("payload = %#v, want %#v", pkt.Payload, tt.payload)
			}
			if pkt.Header.Src != 3 || pkt.Header.Dst != ident.BaseStation || pkt.Header.Seq != 42 {
				t.Errorf("header mangled: %+v", pkt.Header)
			}
		})
	}
}

func TestNetTypesRejectTruncation(t *testing.T) {
	k := testMAC()
	for _, tt := range netPayloads {
		t.Run(tt.name, func(t *testing.T) {
			data, err := Encode(3, ident.BaseStation, 42, tt.payload, k)
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n < len(data); n++ {
				if _, err := Decode(data[:n], k); err == nil {
					t.Fatalf("truncation to %d bytes decoded successfully", n)
				}
			}
		})
	}
}

func TestNetTypesRejectBadTag(t *testing.T) {
	k := testMAC()
	var wrong crypto.Key
	wrong[3] = 0x99
	for _, tt := range netPayloads {
		t.Run(tt.name, func(t *testing.T) {
			data, err := Encode(3, ident.BaseStation, 42, tt.payload, k)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Decode(data, macOf(wrong)); !errors.Is(err, ErrBadTag) {
				t.Errorf("wrong key = %v, want ErrBadTag", err)
			}
			flipped := append([]byte(nil), data...)
			flipped[len(flipped)-1] ^= 0x01
			if _, err := Decode(flipped, k); !errors.Is(err, ErrBadTag) {
				t.Errorf("flipped tag = %v, want ErrBadTag", err)
			}
		})
	}
}

// TestStatusRejectsNonCanonicalBool pins that a RevocationStatus whose
// revoked byte is neither 0 nor 1 is rejected even when correctly signed:
// accepting it would give one decoded packet two wire forms.
func TestStatusRejectsNonCanonicalBool(t *testing.T) {
	k := testMAC()
	data, err := Encode(3, 4, 5, RevocationStatus{Target: 9, Outcome: 1, Revoked: true}, k)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the revoked byte to 2 and re-sign, simulating a buggy or
	// hostile peer that holds the key.
	body := append([]byte(nil), data[:len(data)-crypto.TagSize]...)
	body[headerSize+3] = 2
	tag := k.Sign(body)
	forged := append(body, tag[:]...)
	if _, err := Decode(forged, k); !errors.Is(err, ErrBadValue) {
		t.Errorf("revoked byte 2 = %v, want ErrBadValue", err)
	}
}

func TestFrameLen(t *testing.T) {
	k := testMAC()
	for _, tt := range netPayloads {
		data, err := Encode(3, ident.BaseStation, 42, tt.payload, k)
		if err != nil {
			t.Fatal(err)
		}
		n, err := FrameLen(data[:HeaderSize])
		if err != nil {
			t.Fatalf("%s: FrameLen: %v", tt.name, err)
		}
		if n != len(data) {
			t.Errorf("%s: FrameLen = %d, want %d", tt.name, n, len(data))
		}
	}
}

func TestFrameLenRejects(t *testing.T) {
	k := testMAC()
	data, err := Encode(3, 4, 5, AlertUplink{Target: 9}, k)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FrameLen(data[:HeaderSize-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short prefix = %v, want ErrTruncated", err)
	}
	badType := append([]byte(nil), data...)
	badType[0] = 200
	if _, err := FrameLen(badType); !errors.Is(err, ErrBadType) {
		t.Errorf("bad type = %v, want ErrBadType", err)
	}
	oversize := append([]byte(nil), data...)
	oversize[7] = MaxSize // payload alone would exceed MaxSize
	if _, err := FrameLen(oversize); !errors.Is(err, ErrBadLength) {
		t.Errorf("oversize length = %v, want ErrBadLength", err)
	}
}

// TestNetTypesCanonicalReEncode pins the fuzz invariant for the new types
// directly: Decode then Encode reproduces the input bytes.
func TestNetTypesCanonicalReEncode(t *testing.T) {
	k := testMAC()
	for _, tt := range netPayloads {
		data, err := Encode(9, 10, 11, tt.payload, k)
		if err != nil {
			t.Fatal(err)
		}
		pkt, err := Decode(data, k)
		if err != nil {
			t.Fatal(err)
		}
		re, err := Encode(pkt.Header.Src, pkt.Header.Dst, pkt.Header.Seq, pkt.Payload, k)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, data) {
			t.Errorf("%s: re-encode differs:\n in: %x\nout: %x", tt.name, data, re)
		}
	}
}
