package revnet

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"beaconsec/internal/crypto"
	"beaconsec/internal/ident"
	"beaconsec/internal/packet"
	"beaconsec/internal/revoke"
)

// ServerConfig configures a revocation server.
type ServerConfig struct {
	// Revoke holds the paper's τ/τ′ thresholds.
	Revoke revoke.Config
	// Shards is the lock-shard count for the alert/report counters
	// (rounded up to a power of two; default 16; at most
	// revoke.MaxShards). More shards cost a few hundred bytes each and
	// reduce contention between concurrent connections.
	Shards int
	// Master derives each node's base-station key; it stands in for the
	// predistribution ceremony exactly as in the simulation.
	Master *crypto.Master
	// IdleTimeout bounds how long a connection may sit between frames
	// before the server drops it. Zero means no limit.
	IdleTimeout time.Duration
	// Metrics, when non-nil, receives wire and outcome counters.
	Metrics *Metrics
}

// Server is the networked base station: a goroutine-per-connection TCP
// listener applying authenticated alert uplinks to a sharded revocation
// station and answering revocation-status queries.
type Server struct {
	cfg     ServerConfig
	station *revoke.Sharded
	m       *Metrics

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer constructs a server. The configuration must carry a master
// secret and valid thresholds.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Master == nil {
		return nil, errors.New("revnet: ServerConfig.Master is required")
	}
	if err := cfg.Revoke.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.Shards > revoke.MaxShards {
		return nil, fmt.Errorf("revnet: %d shards exceeds the maximum %d", cfg.Shards, revoke.MaxShards)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &Metrics{}
	}
	return &Server{
		cfg:     cfg,
		station: revoke.NewSharded(cfg.Revoke, cfg.Shards),
		m:       cfg.Metrics,
		conns:   make(map[net.Conn]struct{}),
	}, nil
}

// Station exposes the underlying sharded revocation state (for status
// snapshots and in-process inspection).
func (s *Server) Station() *revoke.Sharded { return s.station }

// Addr returns the listening address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// ListenAndServe listens on the TCP address addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Serve accepts connections on lis until Close (or a fatal listener
// error), spawning one goroutine per connection. It returns nil after
// Close.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return errors.New("revnet: server is closed")
	}
	if s.lis != nil {
		s.mu.Unlock()
		lis.Close()
		return errors.New("revnet: server is already serving")
	}
	s.lis = lis
	s.mu.Unlock()

	for {
		conn, err := lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("revnet: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.m.ConnsAccepted.Inc()
		go s.handle(conn)
	}
}

// Close stops accepting, closes every live connection, and waits for the
// per-connection goroutines to drain. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	lis := s.lis
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	s.wg.Wait()
	return err
}

// forget removes a finished connection from the live set.
func (s *Server) forget(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// handle runs one connection's request loop: read frame, authenticate,
// apply, reply. Any framing, authentication, or protocol error drops the
// connection — the client's retry path owns recovery.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.forget(conn)
	defer conn.Close()

	br := bufio.NewReaderSize(conn, 4*packet.MaxSize)
	in := frameBuf()
	out := make([]byte, 0, packet.MaxSize)
	for {
		if s.cfg.IdleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)); err != nil {
				s.m.ConnsDropped.Inc()
				return
			}
		}
		frame, err := readFrame(br, in)
		if err != nil {
			if err == io.EOF {
				s.m.ConnsClosed.Inc()
			} else {
				if errors.Is(err, packet.ErrBadType) || errors.Is(err, packet.ErrBadLength) {
					// Malformed framing bytes, not an I/O failure.
					s.m.ProtocolErrors.Inc()
				}
				s.m.ConnsDropped.Inc()
			}
			return
		}
		s.m.FramesIn.Inc()
		s.m.BytesIn.Add(uint64(len(frame)))

		reply, ok := s.serveFrame(frame)
		if !ok {
			s.m.ConnsDropped.Inc()
			return
		}
		out, err = packet.EncodeTo(out[:0], ident.BaseStation, reply.dst, reply.seq, reply.status, reply.key)
		if err != nil {
			// Unreachable: RevocationStatus is always encodable.
			s.m.ConnsDropped.Inc()
			return
		}
		if _, err := conn.Write(out); err != nil {
			s.m.ConnsDropped.Inc()
			return
		}
		s.m.BytesOut.Add(uint64(len(out)))
	}
}

// frameReply is the response serveFrame instructs handle to send.
type frameReply struct {
	dst    ident.NodeID
	seq    uint16
	status packet.RevocationStatus
	key    crypto.Key
}

// serveFrame authenticates and applies one request frame. ok=false means
// the frame was hostile or malformed and the connection must drop.
func (s *Server) serveFrame(frame []byte) (frameReply, bool) {
	hdr, err := packet.PeekHeader(frame)
	if err != nil {
		s.m.ProtocolErrors.Inc()
		return frameReply{}, false
	}
	src := hdr.Src
	if src == ident.BaseStation || !src.IsUnicast() {
		// Only real nodes hold base-station keys; a frame claiming to be
		// from the base station (or broadcast/nobody) is hostile.
		s.m.ProtocolErrors.Inc()
		return frameReply{}, false
	}
	key := s.cfg.Master.BaseStationKey(src)
	pkt, err := packet.Decode(frame, key)
	if err != nil {
		if errors.Is(err, packet.ErrBadTag) {
			s.m.AuthFailures.Inc()
		} else {
			s.m.ProtocolErrors.Inc()
		}
		return frameReply{}, false
	}
	if pkt.Header.Dst != ident.BaseStation {
		s.m.ProtocolErrors.Inc()
		return frameReply{}, false
	}

	var status packet.RevocationStatus
	switch p := pkt.Payload.(type) {
	case packet.AlertUplink:
		out := s.station.HandleAlert(src, p.Target)
		s.m.recordOutcome(out)
		status = packet.RevocationStatus{
			Target:  p.Target,
			Outcome: uint8(out),
			Revoked: out == revoke.OutcomeRevoked || out == revoke.OutcomeAlreadyRevoked,
		}
	case packet.RevocationQuery:
		s.m.QueriesServed.Inc()
		status = packet.RevocationStatus{Target: p.Target, Revoked: s.station.Revoked(p.Target)}
	default:
		// A correctly signed frame of a type the service does not accept
		// (e.g. a reflected RevocationStatus or a sim-only type).
		s.m.ProtocolErrors.Inc()
		return frameReply{}, false
	}
	return frameReply{dst: src, seq: pkt.Header.Seq, status: status, key: key}, true
}

// StatusSnapshot is the server's exportable operational state: the
// configured thresholds, the revocation result, per-shard load, and the
// wire counters — the revnet analogue of 'figures -json' run metrics.
type StatusSnapshot struct {
	Addr    string         `json:"addr,omitempty"`
	Revoke  revoke.Config  `json:"revoke"`
	Shards  int            `json:"shards"`
	Revoked []ident.NodeID `json:"revoked"`
	Station revoke.Stats   `json:"station"`
	ByShard []revoke.Stats `json:"by_shard"`
	Net     Snapshot       `json:"net"`
}

// StatusSnapshot captures the server's current state. Safe during
// sustained ingest (per-shard sampling, see revoke.Sharded.RevokedSet).
func (s *Server) StatusSnapshot() StatusSnapshot {
	snap := StatusSnapshot{
		Revoke:  s.cfg.Revoke,
		Shards:  s.station.NumShards(),
		Revoked: s.station.RevokedSet(),
		Station: s.station.Stats(),
		ByShard: s.station.ShardStats(),
		Net:     s.m.Snapshot(),
	}
	if snap.Revoked == nil {
		snap.Revoked = []ident.NodeID{}
	}
	if addr := s.Addr(); addr != nil {
		snap.Addr = addr.String()
	}
	return snap
}

// WriteStatus writes the status snapshot as indented JSON.
func (s *Server) WriteStatus(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.StatusSnapshot())
}

// ServeHTTP serves the status snapshot as JSON, so cmd/revoked can mount
// the server directly on an HTTP status listener.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.WriteStatus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
