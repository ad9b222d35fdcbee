package revnet

// Protocol hardening tests: the stream frame reader's boundary behavior,
// and the server's handling of hostile frames (garbage, forged tags,
// wrong addressing, reflected replies, impersonation). A hostile frame
// never produces a reply — the connection drops and a counter records
// why.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"beaconsec/internal/crypto"
	"beaconsec/internal/ident"
	"beaconsec/internal/packet"
	"beaconsec/internal/revoke"
)

// mustEncode encodes a frame signed under key's MAC.
func mustEncode(t testing.TB, src, dst ident.NodeID, seq uint16, payload any, key crypto.Key) []byte {
	t.Helper()
	mac := crypto.NewMAC(key)
	frame, err := packet.EncodeTo(nil, src, dst, seq, payload, &mac)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestReadFrameCleanEOFAtBoundary(t *testing.T) {
	master := testMaster()
	frame := mustEncode(t, 3, ident.BaseStation, 1, packet.AlertUplink{Target: 9}, master.BaseStationKey(3))

	br := bufio.NewReader(bytes.NewReader(frame))
	got, err := readFrame(br, frameBuf())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, frame) {
		t.Error("frame bytes mangled in transit")
	}
	if _, err := readFrame(br, frameBuf()); err != io.EOF {
		t.Errorf("at frame boundary err = %v, want bare io.EOF", err)
	}
}

func TestReadFrameBackToBackFrames(t *testing.T) {
	master := testMaster()
	var stream []byte
	var want [][]byte
	for seq := uint16(1); seq <= 3; seq++ {
		f := mustEncode(t, 3, ident.BaseStation, seq, packet.RevocationQuery{Target: ident.NodeID(seq)}, master.BaseStationKey(3))
		stream = append(stream, f...)
		want = append(want, f)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	buf := frameBuf()
	for i, w := range want {
		got, err := readFrame(br, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("frame %d mangled", i)
		}
	}
	if _, err := readFrame(br, buf); err != io.EOF {
		t.Errorf("after last frame err = %v, want io.EOF", err)
	}
}

func TestReadFrameTruncation(t *testing.T) {
	master := testMaster()
	frame := mustEncode(t, 3, ident.BaseStation, 1, packet.AlertUplink{Target: 9}, master.BaseStationKey(3))

	// A cut anywhere strictly inside the frame is never EOF: mid-header
	// and mid-body cuts both surface io.ErrUnexpectedEOF.
	for cut := 1; cut < len(frame); cut++ {
		br := bufio.NewReader(bytes.NewReader(frame[:cut]))
		_, err := readFrame(br, frameBuf())
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestReadFrameRejectsBadHeader(t *testing.T) {
	tests := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"unknown type", append([]byte{0xEE}, make([]byte, 7)...), packet.ErrBadType},
		{"oversize length byte", []byte{byte(packet.TypeAlertUplink), 0, 3, 0xFF, 0xFF, 0, 1, 0xFF}, packet.ErrBadLength},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			br := bufio.NewReader(bytes.NewReader(tc.frame))
			if _, err := readFrame(br, frameBuf()); !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// hostileExchange writes raw bytes to a fresh connection and reports
// whether the server replied before dropping it.
func hostileExchange(t *testing.T, addr string, raw []byte) (replied bool) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	_, err = conn.Read(buf)
	return err == nil
}

func TestServerDropsHostileFrames(t *testing.T) {
	master := testMaster()
	node := ident.NodeID(3)
	key := master.BaseStationKey(node)

	srv, addr := startServer(t, ServerConfig{
		Revoke: revoke.Config{ReportCap: 10, AlertThreshold: 2},
		Master: master,
	})

	forged := mustEncode(t, node, ident.BaseStation, 1, packet.AlertUplink{Target: 9}, master.BaseStationKey(4))
	wrongDst := mustEncode(t, node, 7, 1, packet.AlertUplink{Target: 9}, key)
	reflected := mustEncode(t, node, ident.BaseStation, 1,
		packet.RevocationStatus{Target: 9, Outcome: uint8(revoke.OutcomeAccepted)}, key)
	simOnly := mustEncode(t, node, ident.BaseStation, 1, packet.Alert{Target: 9}, key)
	impersonation := mustEncode(t, ident.BaseStation, ident.BaseStation, 1,
		packet.AlertUplink{Target: 9}, master.BaseStationKey(ident.BaseStation))
	broadcastSrc := mustEncode(t, ident.Broadcast, ident.BaseStation, 1,
		packet.AlertUplink{Target: 9}, master.BaseStationKey(ident.Broadcast))

	tests := []struct {
		name string
		raw  []byte
		auth bool // counted as an auth failure rather than a protocol error
	}{
		{"garbage header", bytes.Repeat([]byte{0xEE}, 16), false},
		{"forged tag", forged, true},
		{"wrong dst", wrongDst, false},
		{"reflected status", reflected, false},
		{"sim-only type", simOnly, false},
		{"base-station impersonation", impersonation, false},
		{"broadcast src", broadcastSrc, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			authBefore := srv.m.AuthFailures.Load()
			protoBefore := srv.m.ProtocolErrors.Load()
			droppedBefore := srv.m.ConnsDropped.Load()
			if hostileExchange(t, addr, tc.raw) {
				t.Fatal("server replied to a hostile frame")
			}
			if tc.auth {
				if srv.m.AuthFailures.Load() != authBefore+1 {
					t.Error("auth failure not counted")
				}
			} else if srv.m.ProtocolErrors.Load() != protoBefore+1 {
				t.Error("protocol error not counted")
			}
			// The drop is counted when the connection goroutine exits;
			// poll briefly.
			deadline := time.Now().Add(2 * time.Second)
			for srv.m.ConnsDropped.Load() != droppedBefore+1 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if srv.m.ConnsDropped.Load() != droppedBefore+1 {
				t.Error("dropped connection not counted")
			}
		})
	}
	if got := srv.Station().Stats().Handled; got != 0 {
		t.Errorf("station handled %d alerts from hostile frames, want 0", got)
	}
}

func TestServerIdleTimeoutDropsConnection(t *testing.T) {
	master := testMaster()
	srv, addr := startServer(t, ServerConfig{
		Revoke:      revoke.Config{ReportCap: 10, AlertThreshold: 2},
		Master:      master,
		IdleTimeout: 50 * time.Millisecond,
	})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing; the server must hang up on its own.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server sent data on an idle connection")
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.m.ConnsDropped.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.m.ConnsDropped.Load() != 1 {
		t.Error("idle drop not counted")
	}
}

func TestServerSurvivesMidFrameDisconnect(t *testing.T) {
	master := testMaster()
	node := ident.NodeID(3)
	srv, addr := startServer(t, ServerConfig{
		Revoke: revoke.Config{ReportCap: 10, AlertThreshold: 2},
		Master: master,
	})

	frame := mustEncode(t, node, ident.BaseStation, 1, packet.AlertUplink{Target: 9}, master.BaseStationKey(node))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame[:packet.HeaderSize+1]); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	deadline := time.Now().Add(2 * time.Second)
	for srv.m.ConnsDropped.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.m.ConnsDropped.Load() != 1 {
		t.Error("mid-frame disconnect not counted as a drop")
	}
	// The server must still serve new clients afterwards.
	c := newTestClient(t, addr, node, master)
	out, err := c.SendAlert(context.Background(), 9)
	if err != nil {
		t.Fatalf("alert after hostile disconnect: %v", err)
	}
	if out != revoke.OutcomeAccepted {
		t.Errorf("outcome = %v, want accepted", out)
	}
}
