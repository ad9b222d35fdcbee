package revnet

// Fault-injection suite for the client's retry/backoff path: injected
// dial failures, connection resets, unresponsive servers (per-attempt
// timeout), and truncated replies (the receive side of a short write)
// must all walk the bounded-retry path and surface *ExhaustedError once
// attempts run out, with the retry accounting visible in Metrics.

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"beaconsec/internal/crypto"
	"beaconsec/internal/ident"
	"beaconsec/internal/packet"
	"beaconsec/internal/revoke"
)

// faultyClientConfig is a client config with fast, jitter-free retries
// for tests.
func faultyClientConfig(addr string, self ident.NodeID, master *crypto.Master, attempts int) ClientConfig {
	return ClientConfig{
		Addr:           addr,
		Self:           self,
		Key:            master.BaseStationKey(self),
		AttemptTimeout: 100 * time.Millisecond,
		MaxAttempts:    attempts,
		BackoffBase:    time.Millisecond,
		BackoffMax:     4 * time.Millisecond,
		Jitter:         func() float64 { return 1 }, // deterministic: full backoff, no randomness
	}
}

// fakeServer accepts loopback connections and hands each to handler on
// its own goroutine.
func fakeServer(t *testing.T, handler func(net.Conn)) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go handler(conn)
		}
	}()
	t.Cleanup(func() { lis.Close() })
	return lis.Addr().String()
}

func assertExhausted(t *testing.T, err error, wantAttempts int) *ExhaustedError {
	t.Helper()
	if err == nil {
		t.Fatal("request succeeded, want exhaustion")
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("error %v (%T), want *ExhaustedError", err, err)
	}
	if ex.Attempts != wantAttempts {
		t.Errorf("ExhaustedError.Attempts = %d, want %d", ex.Attempts, wantAttempts)
	}
	if ex.Last == nil {
		t.Error("ExhaustedError.Last is nil")
	}
	return ex
}

// assertRetryMetrics checks the attempt/retry/exhaustion counters after
// one fully failed request.
func assertRetryMetrics(t *testing.T, c *Client, attempts int) {
	t.Helper()
	snap := c.m.Snapshot()
	if snap.Attempts != uint64(attempts) {
		t.Errorf("metrics attempts = %d, want %d", snap.Attempts, attempts)
	}
	if snap.Retries != uint64(attempts-1) {
		t.Errorf("metrics retries = %d, want %d", snap.Retries, attempts-1)
	}
	if snap.Exhausted != 1 {
		t.Errorf("metrics exhausted = %d, want 1", snap.Exhausted)
	}
}

func TestClientDialFailureExhausts(t *testing.T) {
	const attempts = 3
	cfg := faultyClientConfig("127.0.0.1:1", 5, testMaster(), attempts)
	var dials atomic.Int64
	dialErr := errors.New("injected dial failure")
	cfg.Dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return nil, dialErr
	}
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.SendAlert(context.Background(), 50)
	ex := assertExhausted(t, err, attempts)
	if !errors.Is(ex, dialErr) {
		t.Errorf("exhaustion does not wrap the dial error: %v", ex)
	}
	if got := dials.Load(); got != attempts {
		t.Errorf("dialed %d times, want %d", got, attempts)
	}
	assertRetryMetrics(t, c, attempts)
}

func TestClientConnectionResetExhausts(t *testing.T) {
	const attempts = 4
	// The server resets every connection as soon as it opens: each
	// attempt dials successfully, then fails on write or reply read.
	addr := fakeServer(t, func(conn net.Conn) {
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetLinger(0) // RST, not FIN: a genuine reset
		}
		conn.Close()
	})
	c, err := NewClient(faultyClientConfig(addr, 5, testMaster(), attempts))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.SendAlert(context.Background(), 50)
	assertExhausted(t, err, attempts)
	assertRetryMetrics(t, c, attempts)
}

func TestClientPerAttemptTimeoutExhausts(t *testing.T) {
	const attempts = 2
	// The server accepts and reads but never replies: each attempt must
	// end at its own deadline, not hang.
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		io.Copy(io.Discard, conn)
	})
	c, err := NewClient(faultyClientConfig(addr, 5, testMaster(), attempts))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, err = c.SendAlert(context.Background(), 50)
	elapsed := time.Since(start)
	ex := assertExhausted(t, err, attempts)
	if !errors.Is(ex, os.ErrDeadlineExceeded) {
		t.Errorf("exhaustion does not wrap the deadline error: %v", ex)
	}
	// Two attempts at 100ms each plus ~ms backoffs; generous upper bound
	// against slow CI.
	if elapsed < 200*time.Millisecond || elapsed > 5*time.Second {
		t.Errorf("exhaustion took %v, want ≈2 × 100ms attempt timeouts", elapsed)
	}
	assertRetryMetrics(t, c, attempts)
}

func TestClientTruncatedReplyExhausts(t *testing.T) {
	const attempts = 3
	master := testMaster()
	self := ident.NodeID(5)
	key := crypto.NewMAC(master.BaseStationKey(self))
	// The server reads the request and short-writes the reply: a valid
	// frame cut mid-body, then close.
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		buf := make([]byte, packet.MaxSize)
		n, err := conn.Read(buf)
		if err != nil {
			return
		}
		hdr, err := packet.PeekHeader(buf[:n])
		if err != nil {
			return
		}
		reply, err := packet.EncodeTo(nil, ident.BaseStation, self, hdr.Seq,
			packet.RevocationStatus{Target: 50, Outcome: uint8(revoke.OutcomeAccepted)}, &key)
		if err != nil {
			return
		}
		conn.Write(reply[:len(reply)/2])
	})
	c, err := NewClient(faultyClientConfig(addr, self, master, attempts))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.SendAlert(context.Background(), 50)
	ex := assertExhausted(t, err, attempts)
	if !errors.Is(ex, io.ErrUnexpectedEOF) {
		t.Errorf("exhaustion does not wrap the truncation error: %v", ex)
	}
	assertRetryMetrics(t, c, attempts)
}

func TestClientRecoversAfterTransientDialFailures(t *testing.T) {
	master := testMaster()
	_, addr := startServer(t, ServerConfig{
		Revoke: revoke.Config{ReportCap: 10, AlertThreshold: 0},
		Master: master,
	})
	cfg := faultyClientConfig(addr, 5, master, 4)
	var dials atomic.Int64
	var d net.Dialer
	cfg.Dial = func(ctx context.Context, network, a string) (net.Conn, error) {
		if dials.Add(1) <= 2 {
			return nil, errors.New("injected transient failure")
		}
		return d.DialContext(ctx, network, a)
	}
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	out, err := c.SendAlert(context.Background(), 50)
	if err != nil {
		t.Fatalf("alert failed despite retry budget: %v", err)
	}
	if out != revoke.OutcomeRevoked {
		t.Errorf("outcome = %v, want revoked (τ′=0)", out)
	}
	snap := c.m.Snapshot()
	if snap.Attempts != 3 || snap.Retries != 2 || snap.Exhausted != 0 {
		t.Errorf("metrics = %d attempts / %d retries / %d exhausted, want 3/2/0",
			snap.Attempts, snap.Retries, snap.Exhausted)
	}
}

func TestClientContextCancelDuringBackoff(t *testing.T) {
	cfg := faultyClientConfig("127.0.0.1:1", 5, testMaster(), 10)
	cfg.BackoffBase = 10 * time.Second // park the retry loop in backoff
	cfg.BackoffMax = 10 * time.Second
	cfg.Dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		return nil, errors.New("injected dial failure")
	}
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = c.SendAlert(ctx, 50)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	var ex *ExhaustedError
	if errors.As(err, &ex) {
		t.Error("cancellation misreported as retry exhaustion")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt return from backoff", elapsed)
	}
}

func TestClientContextDeadlineBoundsRequest(t *testing.T) {
	// An unresponsive server plus a context deadline shorter than the
	// attempt timeout: the context governs.
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		io.Copy(io.Discard, conn)
	})
	cfg := faultyClientConfig(addr, 5, testMaster(), 10)
	cfg.AttemptTimeout = 10 * time.Second
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Query(ctx, 50)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline honored after %v, want ≈50ms", elapsed)
	}
}

func TestClientUseAfterCloseFails(t *testing.T) {
	master := testMaster()
	_, addr := startServer(t, ServerConfig{
		Revoke: revoke.Config{ReportCap: 10, AlertThreshold: 1},
		Master: master,
	})
	c, err := NewClient(faultyClientConfig(addr, 5, master, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SendAlert(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SendAlert(context.Background(), 51); err == nil {
		t.Fatal("alert on closed client succeeded")
	}
}

func TestClientConfigValidation(t *testing.T) {
	master := testMaster()
	if _, err := NewClient(ClientConfig{Self: 5, Key: master.BaseStationKey(5)}); err == nil {
		t.Error("empty addr accepted")
	}
	for _, self := range []ident.NodeID{ident.BaseStation, ident.Broadcast, ident.Nobody} {
		if _, err := NewClient(ClientConfig{Addr: "x:1", Self: self}); err == nil {
			t.Errorf("identity %v accepted", self)
		}
	}
}
