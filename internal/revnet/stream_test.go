package revnet

// Stream-level tests: one client's raw byte stream fed straight into a
// server connection over net.Pipe, with every reply collected. They pin
// the per-connection reporter key and, as a fuzz target, that no byte
// stream can panic the server, earn a reply it cannot authenticate, or
// move the station without a valid tag.

import (
	"bufio"
	"bytes"
	"net"
	"reflect"
	"testing"
	"time"

	"beaconsec/internal/crypto"
	"beaconsec/internal/ident"
	"beaconsec/internal/packet"
	"beaconsec/internal/revoke"
)

// serveStream runs one server connection over net.Pipe. It writes stream
// as the client's bytes, ends the client's input once the server has
// read all of them, and returns every reply the server wrote before it
// closed the connection.
func serveStream(srv *Server, stream []byte) [][]byte {
	client, server := net.Pipe()
	srv.wg.Add(1)
	go srv.handle(server)
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		if len(stream) > 0 {
			// Write returns once the server has read every byte, or
			// has closed the connection.
			client.Write(stream)
		}
		// Nothing more will come: the server's next read fails, so it
		// hangs up after serving the frames it already holds. The
		// server sets no deadline of its own (IdleTimeout is zero).
		server.SetReadDeadline(time.Now())
	}()
	var replies [][]byte
	br := bufio.NewReader(client)
	for {
		frame, err := readFrame(br, frameBuf())
		if err != nil {
			break
		}
		replies = append(replies, frame)
	}
	client.Close()
	<-wrote
	srv.wg.Wait()
	return replies
}

// splitFrames cuts a client byte stream into the frames a server reads
// from it, stopping at the first framing error.
func splitFrames(stream []byte) [][]byte {
	var frames [][]byte
	br := bufio.NewReader(bytes.NewReader(stream))
	for {
		frame, err := readFrame(br, frameBuf())
		if err != nil {
			return frames
		}
		frames = append(frames, frame)
	}
}

// bsMAC returns the MAC of id's base-station key.
func bsMAC(master *crypto.Master, id ident.NodeID) *crypto.MAC {
	m := crypto.NewMAC(master.BaseStationKey(id))
	return &m
}

// TestServerKeysFollowReporter pins the server's per-connection key: it
// follows each frame's Src, so frames from reporters 3, 4, 3 on one
// connection each get a reply under that reporter's own key, and a frame
// claiming Src 4 but signed under 3's key fails authentication even
// right after a frame from 3.
func TestServerKeysFollowReporter(t *testing.T) {
	master := testMaster()
	srv, err := NewServer(ServerConfig{
		Revoke: revoke.Config{ReportCap: 10, AlertThreshold: 2},
		Master: master,
	})
	if err != nil {
		t.Fatal(err)
	}
	var stream []byte
	for i, src := range []ident.NodeID{3, 4, 3} {
		stream = append(stream, mustEncode(t, src, ident.BaseStation, uint16(i+1),
			packet.AlertUplink{Target: 9}, master.BaseStationKey(src))...)
	}
	stream = append(stream, mustEncode(t, 4, ident.BaseStation, 4,
		packet.AlertUplink{Target: 10}, master.BaseStationKey(3))...)
	stream = append(stream, mustEncode(t, 5, ident.BaseStation, 5,
		packet.AlertUplink{Target: 9}, master.BaseStationKey(5))...)

	replies := serveStream(srv, stream)
	if len(replies) != 3 {
		t.Fatalf("%d replies, want 3: the forged frame must end the connection", len(replies))
	}
	for i, src := range []ident.NodeID{3, 4, 3} {
		other := ident.NodeID(7 - src) // 3 <-> 4
		if _, err := packet.Decode(replies[i], bsMAC(master, other)); err == nil {
			t.Errorf("reply %d verifies under reporter %v's key, not only %v's", i, other, src)
		}
		pkt, err := packet.Decode(replies[i], bsMAC(master, src))
		if err != nil {
			t.Fatalf("reply %d to reporter %v: %v", i, src, err)
		}
		if pkt.Header.Dst != src || pkt.Header.Seq != uint16(i+1) {
			t.Errorf("reply %d header %+v, want Dst %v Seq %d", i, pkt.Header, src, i+1)
		}
	}
	if got := srv.m.AuthFailures.Load(); got != 1 {
		t.Errorf("AuthFailures = %d, want 1 (the frame signed under another reporter's key)", got)
	}
	if got := srv.m.ConnsDropped.Load(); got != 1 {
		t.Errorf("ConnsDropped = %d, want 1", got)
	}
	if got := srv.Station().Stats().Handled; got != 3 {
		t.Errorf("station handled %d alerts, want the 3 authentic ones", got)
	}
}

// FuzzServerStream feeds arbitrary bytes, as one client's stream, into a
// server connection. The server must not panic; each reply must answer
// the request frame at its position, which must itself verify, under
// that frame's Src's base-station key; and the station must end exactly
// where the answered frames, replayed serially, leave a fresh one.
func FuzzServerStream(f *testing.F) {
	master := testMaster()
	seal := func(src ident.NodeID, seq uint16, payload any) []byte {
		return mustEncode(f, src, ident.BaseStation, seq, payload, master.BaseStationKey(src))
	}
	alert := seal(3, 1, packet.AlertUplink{Target: 9})
	f.Add(append(append([]byte(nil), alert...), seal(4, 2, packet.RevocationQuery{Target: 9})...))
	f.Add(alert[:len(alert)-3])
	flipped := append([]byte(nil), alert...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)
	oversize := append([]byte(nil), alert...)
	oversize[packet.HeaderSize-1] = 0xFF
	f.Add(oversize)

	cfg := revoke.Config{ReportCap: 3, AlertThreshold: 1}
	f.Fuzz(func(t *testing.T, stream []byte) {
		srv, err := NewServer(ServerConfig{Revoke: cfg, Master: master})
		if err != nil {
			t.Fatal(err)
		}
		replies := serveStream(srv, stream)
		requests := splitFrames(stream)
		if len(replies) > len(requests) {
			t.Fatalf("%d replies to %d request frames", len(replies), len(requests))
		}
		ref := revoke.NewSharded(cfg, srv.Station().NumShards())
		for i, raw := range replies {
			hdr, _ := packet.PeekHeader(requests[i]) // readFrame checked it
			src := hdr.Src
			key := bsMAC(master, src)
			in, err := packet.Decode(requests[i], key)
			if err != nil {
				t.Fatalf("reply %d answers a frame that does not verify under %v's key: %v", i, src, err)
			}
			out, err := packet.Decode(raw, key)
			if err != nil {
				t.Fatalf("reply %d does not decode under %v's key: %v", i, src, err)
			}
			if out.Header.Src != ident.BaseStation || out.Header.Dst != src || out.Header.Seq != in.Header.Seq {
				t.Fatalf("reply %d header %+v answers request %+v", i, out.Header, in.Header)
			}
			status, ok := out.Payload.(packet.RevocationStatus)
			if !ok {
				t.Fatalf("reply %d is a %v", i, out.Header.Type)
			}
			var want packet.RevocationStatus
			switch p := in.Payload.(type) {
			case packet.AlertUplink:
				o := ref.HandleAlert(src, p.Target)
				want = packet.RevocationStatus{Target: p.Target, Outcome: uint8(o),
					Revoked: o == revoke.OutcomeRevoked || o == revoke.OutcomeAlreadyRevoked}
			case packet.RevocationQuery:
				want = packet.RevocationStatus{Target: p.Target, Revoked: ref.Revoked(p.Target)}
			default:
				t.Fatalf("reply %d answers a %v request", i, in.Header.Type)
			}
			if status != want {
				t.Fatalf("reply %d status %+v, serial replay gives %+v", i, status, want)
			}
		}
		if got, want := srv.Station().Stats(), ref.Stats(); got != want {
			t.Fatalf("station stats %+v, replay of the answered frames gives %+v", got, want)
		}
		if got, want := srv.Station().RevokedSet(), ref.RevokedSet(); !reflect.DeepEqual(got, want) {
			t.Fatalf("station revoked %v, replay of the answered frames revoked %v", got, want)
		}
	})
}
