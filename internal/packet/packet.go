// Package packet defines the over-the-air message formats and their binary
// codec. Every packet is authenticated with a truncated HMAC tag under the
// pairwise key of the two communicating identities (paper §2: "every
// beacon packet is authenticated ... with the pairwise key shared between
// two communicating nodes"), so externally forged packets are rejected at
// decode time.
//
// Wire format (big endian):
//
//	byte 0      Type
//	bytes 1-2   Src NodeID
//	bytes 3-4   Dst NodeID
//	bytes 5-6   Seq
//	byte 7      payload length
//	...         payload (type-specific)
//	last 8      HMAC-SHA256 tag, truncated
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"

	"beaconsec/internal/crypto"
	"beaconsec/internal/geo"
	"beaconsec/internal/ident"
)

// Type enumerates packet types. Values start at 1 so the zero value is
// invalid.
type Type uint8

// Packet types.
const (
	// TypeHello is a beacon node's presence announcement used for
	// neighbor discovery. Broadcast, unauthenticated payload (discovery
	// only; all location-bearing traffic is unicast and authenticated).
	TypeHello Type = iota + 1
	// TypeBeaconRequest asks a beacon node for a beacon signal.
	TypeBeaconRequest
	// TypeBeaconReply is the beacon signal: the beacon's declared
	// location plus the receiver-side turnaround time t3-t2 used by the
	// requester's RTT computation.
	TypeBeaconReply
	// TypeAlert reports a suspected malicious beacon node to the base
	// station.
	TypeAlert
	// TypeAlertUplink carries an alert from a detecting node to the
	// networked base station (the revnet service): Src is the
	// authenticated reporter, the payload names the accused target. The
	// server answers with a TypeRevocationStatus echoing the request Seq.
	TypeAlertUplink
	// TypeRevocationQuery asks the networked base station whether a node
	// has been revoked.
	TypeRevocationQuery
	// TypeRevocationStatus is the base station's reply to an alert uplink
	// or a revocation query: the target's revocation state plus, for
	// alerts, how the alert was handled.
	TypeRevocationStatus
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeBeaconRequest:
		return "request"
	case TypeBeaconReply:
		return "reply"
	case TypeAlert:
		return "alert"
	case TypeAlertUplink:
		return "alert-uplink"
	case TypeRevocationQuery:
		return "revocation-query"
	case TypeRevocationStatus:
		return "revocation-status"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Header is common to all packets.
type Header struct {
	Type Type
	Src  ident.NodeID
	Dst  ident.NodeID
	Seq  uint16
}

// Hello is the payload of TypeHello.
type Hello struct{}

// BeaconRequest is the payload of TypeBeaconRequest.
type BeaconRequest struct{}

// BeaconReply is the payload of TypeBeaconReply: the beacon packet.
type BeaconReply struct {
	// Loc is the location the beacon node declares for itself. A
	// compromised beacon may declare anything.
	Loc geo.Point
	// Turnaround is the receiver-side t3 - t2 in CPU cycles, reported so
	// the requester can compute RTT = (t4 - t1) - Turnaround (paper
	// Figure 3).
	Turnaround uint32
	// Echo is the Seq of the request being answered, binding the reply
	// to a specific outstanding request.
	Echo uint16
}

// Alert is the payload of TypeAlert: "every alert from a detecting node
// includes the ID of the detecting node and the ID of the target node".
// The detecting node is the authenticated Src of the packet; Target is the
// accused beacon node.
type Alert struct {
	Target ident.NodeID
}

// AlertUplink is the payload of TypeAlertUplink. The reporter is the
// authenticated Src of the packet (signed under its base-station key), so
// a compromised node cannot uplink alerts in another node's name.
type AlertUplink struct {
	Target ident.NodeID
}

// RevocationQuery is the payload of TypeRevocationQuery.
type RevocationQuery struct {
	Target ident.NodeID
}

// RevocationStatus is the payload of TypeRevocationStatus. Outcome is the
// base station's revoke.Outcome for the alert being answered, or 0 (the
// invalid outcome) when the status answers a plain query.
type RevocationStatus struct {
	Target  ident.NodeID
	Outcome uint8
	Revoked bool
}

// Packet is a decoded packet.
type Packet struct {
	Header  Header
	Payload any // one of Hello, BeaconRequest, BeaconReply, Alert, AlertUplink, RevocationQuery, RevocationStatus
}

// Codec errors.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrBadType     = errors.New("packet: unknown type")
	ErrBadLength   = errors.New("packet: payload length mismatch")
	ErrBadTag      = errors.New("packet: authentication failed")
	ErrBadValue    = errors.New("packet: non-canonical field value")
	ErrUnencodable = errors.New("packet: payload type not encodable")
)

const (
	headerSize = 8
	// HeaderSize is the fixed encoded header length — the prefix a stream
	// transport must read before FrameLen can size the rest of the frame.
	HeaderSize = headerSize
	// MaxSize bounds encoded packets, mote-style.
	MaxSize = 64
)

// FrameLen returns the total encoded length (header + payload + tag) of
// the frame whose first HeaderSize bytes are in prefix. Stream transports
// (the revnet TCP protocol) use it to delimit packets: read HeaderSize
// bytes, then FrameLen-HeaderSize more. It validates the type and bounds
// the declared payload so a malformed length byte cannot request an
// oversized read.
func FrameLen(prefix []byte) (int, error) {
	if _, err := PeekHeader(prefix); err != nil {
		return 0, err
	}
	n := int(prefix[7])
	if headerSize+n+crypto.TagSize > MaxSize {
		return 0, fmt.Errorf("%w: payload length %d exceeds MaxSize", ErrBadLength, n)
	}
	return headerSize + n + crypto.TagSize, nil
}

// replyLen is the encoded length of a BeaconReply payload: the declared
// location, the turnaround and the echoed sequence number.
const replyLen = 8 + 8 + 4 + 2

// turnaroundAt is the offset of a BeaconReply's Turnaround in its packet.
const turnaroundAt = headerSize + 16

// layout returns the packet type and encoded payload length of payload.
func layout(payload any) (Type, int, error) {
	switch payload.(type) {
	case Hello:
		return TypeHello, 0, nil
	case BeaconRequest:
		return TypeBeaconRequest, 0, nil
	case BeaconReply:
		return TypeBeaconReply, replyLen, nil
	case Alert:
		return TypeAlert, 2, nil
	case AlertUplink:
		return TypeAlertUplink, 2, nil
	case RevocationQuery:
		return TypeRevocationQuery, 2, nil
	case RevocationStatus:
		return TypeRevocationStatus, 2 + 1 + 1, nil
	default:
		// reflect.TypeOf, unlike fmt's %T, does not let payload escape:
		// a payload converted to any where it is sent then stays on the
		// sender's stack.
		return 0, 0, fmt.Errorf("%w: %v", ErrUnencodable, reflect.TypeOf(payload))
	}
}

// AppendBody appends the unsigned encoding of a packet, its header and
// payload without the tag, to dst and returns the extended slice. Seal
// signs it. A sender that writes a field at launch (PutTurnaround)
// encodes the body first and seals it then.
func AppendBody(dst []byte, src, dstID ident.NodeID, seq uint16, payload any) ([]byte, error) {
	typ, n, err := layout(payload)
	if err != nil {
		return nil, err
	}
	buf := dst
	buf = append(buf, byte(typ))
	buf = binary.BigEndian.AppendUint16(buf, uint16(src))
	buf = binary.BigEndian.AppendUint16(buf, uint16(dstID))
	buf = binary.BigEndian.AppendUint16(buf, seq)
	buf = append(buf, byte(n))

	switch p := payload.(type) {
	case Hello, BeaconRequest:
		// empty payload
	case BeaconReply:
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(p.Loc.X))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(p.Loc.Y))
		buf = binary.BigEndian.AppendUint32(buf, p.Turnaround)
		buf = binary.BigEndian.AppendUint16(buf, p.Echo)
	case Alert:
		buf = binary.BigEndian.AppendUint16(buf, uint16(p.Target))
	case AlertUplink:
		buf = binary.BigEndian.AppendUint16(buf, uint16(p.Target))
	case RevocationQuery:
		buf = binary.BigEndian.AppendUint16(buf, uint16(p.Target))
	case RevocationStatus:
		buf = binary.BigEndian.AppendUint16(buf, uint16(p.Target))
		buf = append(buf, p.Outcome)
		var revoked byte
		if p.Revoked {
			revoked = 1
		}
		buf = append(buf, revoked)
	}
	return buf, nil
}

// Seal appends to body, one packet's header and payload as AppendBody
// wrote them, its authentication tag under mac.
func Seal(body []byte, mac *crypto.MAC) []byte {
	tag := mac.Sign(body)
	return append(body, tag[:]...)
}

// PutTurnaround writes v into the Turnaround field of body, an unsealed
// BeaconReply as AppendBody wrote it.
func PutTurnaround(body []byte, v uint32) {
	binary.BigEndian.PutUint32(body[turnaroundAt:], v)
}

// EncodeTo serializes a packet and its authentication tag under mac into
// dst's spare capacity (growing it only if needed) and returns the
// extended slice. A sender that owns a buffer, such as a revnet
// connection, keeps the encode path allocation-free with it; dst may be
// nil.
func EncodeTo(dst []byte, src, dstID ident.NodeID, seq uint16, payload any, mac *crypto.MAC) ([]byte, error) {
	start := len(dst)
	buf, err := AppendBody(dst, src, dstID, seq, payload)
	if err != nil {
		return nil, err
	}
	tag := mac.Sign(buf[start:])
	return append(buf, tag[:]...), nil
}

// PeekHeader decodes only the header, without authenticating. Radios use
// it to decide whether a frame is addressed to them before spending a MAC
// verification.
func PeekHeader(data []byte) (Header, error) {
	if len(data) < headerSize {
		return Header{}, ErrTruncated
	}
	h := Header{
		Type: Type(data[0]),
		Src:  ident.NodeID(binary.BigEndian.Uint16(data[1:3])),
		Dst:  ident.NodeID(binary.BigEndian.Uint16(data[3:5])),
		Seq:  binary.BigEndian.Uint16(data[5:7]),
	}
	if h.Type < TypeHello || h.Type > TypeRevocationStatus {
		return Header{}, fmt.Errorf("%w: %d", ErrBadType, data[0])
	}
	return h, nil
}

// Decode parses and authenticates a packet under mac.
func Decode(data []byte, mac *crypto.MAC) (Packet, error) {
	h, err := PeekHeader(data)
	if err != nil {
		return Packet{}, err
	}
	if len(data) < headerSize+crypto.TagSize {
		return Packet{}, ErrTruncated
	}
	body := data[:len(data)-crypto.TagSize]
	var tag crypto.Tag
	copy(tag[:], data[len(data)-crypto.TagSize:])
	if !mac.Verify(body, tag) {
		return Packet{}, ErrBadTag
	}
	n := int(data[7])
	payload := body[headerSize:]
	if len(payload) != n {
		return Packet{}, fmt.Errorf("%w: header says %d, have %d", ErrBadLength, n, len(payload))
	}

	pkt := Packet{Header: h}
	switch h.Type {
	case TypeHello:
		if n != 0 {
			return Packet{}, fmt.Errorf("%w: hello with payload", ErrBadLength)
		}
		pkt.Payload = Hello{}
	case TypeBeaconRequest:
		if n != 0 {
			return Packet{}, fmt.Errorf("%w: request with payload", ErrBadLength)
		}
		pkt.Payload = BeaconRequest{}
	case TypeBeaconReply:
		if n != replyLen {
			return Packet{}, fmt.Errorf("%w: reply payload %d", ErrBadLength, n)
		}
		pkt.Payload = BeaconReply{
			Loc: geo.Point{
				X: math.Float64frombits(binary.BigEndian.Uint64(payload[0:8])),
				Y: math.Float64frombits(binary.BigEndian.Uint64(payload[8:16])),
			},
			Turnaround: binary.BigEndian.Uint32(payload[16:20]),
			Echo:       binary.BigEndian.Uint16(payload[20:22]),
		}
	case TypeAlert:
		if n != 2 {
			return Packet{}, fmt.Errorf("%w: alert payload %d", ErrBadLength, n)
		}
		pkt.Payload = Alert{Target: ident.NodeID(binary.BigEndian.Uint16(payload))}
	case TypeAlertUplink:
		if n != 2 {
			return Packet{}, fmt.Errorf("%w: alert-uplink payload %d", ErrBadLength, n)
		}
		pkt.Payload = AlertUplink{Target: ident.NodeID(binary.BigEndian.Uint16(payload))}
	case TypeRevocationQuery:
		if n != 2 {
			return Packet{}, fmt.Errorf("%w: revocation-query payload %d", ErrBadLength, n)
		}
		pkt.Payload = RevocationQuery{Target: ident.NodeID(binary.BigEndian.Uint16(payload))}
	case TypeRevocationStatus:
		if n != 4 {
			return Packet{}, fmt.Errorf("%w: revocation-status payload %d", ErrBadLength, n)
		}
		if payload[3] > 1 {
			// Revoked is a bool on the wire: only 0/1 keep Decode∘Encode
			// the identity (one canonical wire form per packet).
			return Packet{}, fmt.Errorf("%w: revoked byte %d", ErrBadValue, payload[3])
		}
		pkt.Payload = RevocationStatus{
			Target:  ident.NodeID(binary.BigEndian.Uint16(payload[0:2])),
			Outcome: payload[2],
			Revoked: payload[3] == 1,
		}
	}
	return pkt, nil
}
