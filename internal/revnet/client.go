package revnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"beaconsec/internal/crypto"
	"beaconsec/internal/ident"
	"beaconsec/internal/packet"
	"beaconsec/internal/revoke"
)

// ClientConfig configures a revocation client — one node's connection to
// the networked base station.
type ClientConfig struct {
	// Addr is the server's TCP address.
	Addr string
	// Self is this node's identity; requests are sent as Src=Self.
	Self ident.NodeID
	// Key is the base-station key provisioned to Self
	// (crypto.Master.BaseStationKey(Self)).
	Key crypto.Key

	// AttemptTimeout bounds one attempt end to end: dial (when
	// reconnecting), write, and reply read. Default 2s.
	AttemptTimeout time.Duration
	// MaxAttempts bounds attempts per request, including the first.
	// Default 4.
	MaxAttempts int
	// BackoffBase is the pre-jitter backoff after the first failed
	// attempt; it doubles per attempt up to BackoffMax. Defaults 25ms and
	// 1s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Jitter returns a uniform value in [0, 1) used to spread retries
	// (full jitter: sleep = backoff * (0.5 + 0.5*Jitter())). Defaults to
	// math/rand/v2; tests inject a deterministic source.
	Jitter func() float64

	// Dial opens the transport connection; tests inject failures here.
	// Defaults to a net.Dialer respecting the attempt deadline.
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)

	// Metrics, when non-nil, receives attempt/retry/traffic counters.
	Metrics *Metrics
}

// ExhaustedError is returned when a request failed every attempt. It
// wraps the last attempt's error.
type ExhaustedError struct {
	// Op names the failed request ("alert" or "query").
	Op string
	// Attempts is how many attempts were made.
	Attempts int
	// Last is the final attempt's error.
	Last error
}

// Error implements error.
func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("revnet: %s failed after %d attempts: %v", e.Op, e.Attempts, e.Last)
}

// Unwrap exposes the last attempt's error to errors.Is/As chains.
func (e *ExhaustedError) Unwrap() error { return e.Last }

// Client is the networked analogue of the simulated revoke.Uplink: it
// delivers alerts to the base station over TCP with per-attempt timeouts
// and bounded, jittered retries, and additionally supports
// revocation-status queries. A Client is safe for concurrent use;
// requests on one client are serialized over its single connection.
type Client struct {
	cfg ClientConfig
	m   *Metrics
	mac crypto.MAC // of cfg.Key, derived once

	sendMu sync.Mutex // serializes request/reply exchanges and guards the fields below
	conn   net.Conn
	br     *bufio.Reader
	in     []byte
	out    []byte
	seq    uint16
	closed bool
}

// NewClient builds a client. It does not dial; the first request
// connects (and any request transparently reconnects after a failure).
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Addr == "" {
		return nil, errors.New("revnet: ClientConfig.Addr is required")
	}
	if cfg.Self == ident.BaseStation || !cfg.Self.IsUnicast() {
		return nil, fmt.Errorf("revnet: ClientConfig.Self %v is not a node identity", cfg.Self)
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 2 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 25 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Second
	}
	if cfg.Jitter == nil {
		cfg.Jitter = rand.Float64
	}
	if cfg.Dial == nil {
		var d net.Dialer
		cfg.Dial = d.DialContext
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &Metrics{}
	}
	return &Client{
		cfg: cfg,
		m:   cfg.Metrics,
		mac: crypto.NewMAC(cfg.Key),
		in:  frameBuf(),
		out: make([]byte, 0, packet.MaxSize),
	}, nil
}

// Close closes the client's connection, if any. In-flight requests fail.
func (c *Client) Close() error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.closed = true
	return c.dropConnLocked()
}

// SendAlert delivers one alert accusing target and returns the base
// station's outcome. On total failure it returns a *ExhaustedError (or
// ctx's error if the context ended first).
func (c *Client) SendAlert(ctx context.Context, target ident.NodeID) (revoke.Outcome, error) {
	status, err := c.roundTrip(ctx, "alert", packet.AlertUplink{Target: target}, target)
	if err != nil {
		return 0, err
	}
	return revoke.Outcome(status.Outcome), nil
}

// Query asks whether target is revoked.
func (c *Client) Query(ctx context.Context, target ident.NodeID) (bool, error) {
	status, err := c.roundTrip(ctx, "query", packet.RevocationQuery{Target: target}, target)
	if err != nil {
		return false, err
	}
	return status.Revoked, nil
}

// roundTrip runs the retry loop for one request.
func (c *Client) roundTrip(ctx context.Context, op string, payload any, target ident.NodeID) (packet.RevocationStatus, error) {
	var last error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.m.Retries.Inc()
			if err := c.sleepBackoff(ctx, attempt); err != nil {
				return packet.RevocationStatus{}, err
			}
		}
		if err := ctx.Err(); err != nil {
			return packet.RevocationStatus{}, err
		}
		c.m.Attempts.Inc()
		status, err := c.attempt(ctx, payload, target)
		if err == nil {
			return status, nil
		}
		last = err
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The caller's context ended mid-attempt; don't burn the
			// remaining attempts against a dead deadline.
			if ctx.Err() != nil {
				return packet.RevocationStatus{}, ctx.Err()
			}
		}
	}
	c.m.Exhausted.Inc()
	return packet.RevocationStatus{}, &ExhaustedError{Op: op, Attempts: c.cfg.MaxAttempts, Last: last}
}

// sleepBackoff waits the jittered exponential backoff for the given
// attempt number (≥1), or returns early with ctx's error.
func (c *Client) sleepBackoff(ctx context.Context, attempt int) error {
	d := c.cfg.BackoffBase << (attempt - 1)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	d = time.Duration(float64(d) * (0.5 + 0.5*c.cfg.Jitter()))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// attempt performs one connect-write-read exchange under the per-attempt
// deadline.
func (c *Client) attempt(ctx context.Context, payload any, target ident.NodeID) (packet.RevocationStatus, error) {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.closed {
		return packet.RevocationStatus{}, net.ErrClosed
	}
	deadline := time.Now().Add(c.cfg.AttemptTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if c.conn == nil {
		dialCtx, cancel := context.WithDeadline(ctx, deadline)
		conn, err := c.cfg.Dial(dialCtx, "tcp", c.cfg.Addr)
		cancel()
		if err != nil {
			return packet.RevocationStatus{}, fmt.Errorf("revnet: dial %s: %w", c.cfg.Addr, err)
		}
		c.conn = conn
		c.br = bufio.NewReaderSize(conn, 4*packet.MaxSize)
	}
	status, err := c.exchangeLocked(deadline, payload, target)
	if err != nil {
		// Any failure poisons the connection: the stream may hold a
		// half-written request or a stale reply, so reconnect.
		c.dropConnLocked()
		return packet.RevocationStatus{}, err
	}
	return status, nil
}

// exchangeLocked writes one request and reads its status reply on the
// live connection. Caller holds sendMu and owns a non-nil conn.
func (c *Client) exchangeLocked(deadline time.Time, payload any, target ident.NodeID) (packet.RevocationStatus, error) {
	if err := c.conn.SetDeadline(deadline); err != nil {
		return packet.RevocationStatus{}, err
	}
	c.seq++
	seq := c.seq
	var err error
	c.out, err = packet.EncodeTo(c.out[:0], c.cfg.Self, ident.BaseStation, seq, payload, &c.mac)
	if err != nil {
		return packet.RevocationStatus{}, err
	}
	if _, err := c.conn.Write(c.out); err != nil {
		return packet.RevocationStatus{}, fmt.Errorf("revnet: write: %w", err)
	}
	c.m.BytesOut.Add(uint64(len(c.out)))

	frame, err := readFrame(c.br, c.in)
	if err != nil {
		return packet.RevocationStatus{}, fmt.Errorf("revnet: read reply: %w", err)
	}
	c.m.FramesIn.Inc()
	c.m.BytesIn.Add(uint64(len(frame)))
	pkt, err := packet.Decode(frame, &c.mac)
	if err != nil {
		return packet.RevocationStatus{}, fmt.Errorf("revnet: reply: %w", err)
	}
	status, ok := pkt.Payload.(packet.RevocationStatus)
	if !ok {
		return packet.RevocationStatus{}, fmt.Errorf("revnet: reply type %v, want revocation-status", pkt.Header.Type)
	}
	if pkt.Header.Src != ident.BaseStation || pkt.Header.Dst != c.cfg.Self {
		return packet.RevocationStatus{}, fmt.Errorf("revnet: reply addressed %v->%v", pkt.Header.Src, pkt.Header.Dst)
	}
	if pkt.Header.Seq != seq {
		return packet.RevocationStatus{}, fmt.Errorf("revnet: reply seq %d, want %d", pkt.Header.Seq, seq)
	}
	if status.Target != target {
		return packet.RevocationStatus{}, fmt.Errorf("revnet: reply for target %v, want %v", status.Target, target)
	}
	return status, nil
}

// dropConnLocked closes and forgets the connection. Caller holds sendMu.
func (c *Client) dropConnLocked() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	c.br = nil
	return err
}
