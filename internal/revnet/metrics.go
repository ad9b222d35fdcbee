package revnet

import "beaconsec/internal/metrics"

// Metrics holds the revnet wire-level counters. Every counter is an
// atomic add (internal/metrics.Counter), so a server's per-connection
// goroutines, or any number of clients, may share one. A server owns its
// Metrics, and a client allocates one when its config leaves Metrics nil,
// so recording sites never branch.
type Metrics struct {
	// Server-side connection lifecycle.
	ConnsAccepted metrics.Counter
	ConnsClosed   metrics.Counter // peer closed cleanly (EOF after a frame boundary)
	ConnsDropped  metrics.Counter // dropped by the server: I/O error, bad frame, bad tag, protocol violation

	// Traffic, both sides.
	FramesIn metrics.Counter
	BytesIn  metrics.Counter
	BytesOut metrics.Counter

	// Server-side request handling. Alert outcomes are counted once, by
	// the station (revoke.Stats).
	AuthFailures   metrics.Counter // frames whose HMAC tag failed to verify
	ProtocolErrors metrics.Counter // well-signed frames of an unexpected type or addressing
	QueriesServed  metrics.Counter

	// Client-side retry accounting.
	Attempts  metrics.Counter // request attempts, including the first
	Retries   metrics.Counter // attempts after the first
	Exhausted metrics.Counter // requests that failed every attempt
}

// Snapshot is the JSON-exportable view of a Metrics at one instant.
type Snapshot struct {
	ConnsAccepted uint64 `json:"conns_accepted"`
	ConnsClosed   uint64 `json:"conns_closed"`
	ConnsDropped  uint64 `json:"conns_dropped"`

	FramesIn uint64 `json:"frames_in"`
	BytesIn  uint64 `json:"bytes_in"`
	BytesOut uint64 `json:"bytes_out"`

	AuthFailures   uint64 `json:"auth_failures"`
	ProtocolErrors uint64 `json:"protocol_errors"`
	QueriesServed  uint64 `json:"queries_served"`

	Attempts  uint64 `json:"attempts"`
	Retries   uint64 `json:"retries"`
	Exhausted uint64 `json:"exhausted"`
}

// Snapshot captures the current counter values. Safe to call while both
// sides are recording.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	return Snapshot{
		ConnsAccepted:  m.ConnsAccepted.Load(),
		ConnsClosed:    m.ConnsClosed.Load(),
		ConnsDropped:   m.ConnsDropped.Load(),
		FramesIn:       m.FramesIn.Load(),
		BytesIn:        m.BytesIn.Load(),
		BytesOut:       m.BytesOut.Load(),
		AuthFailures:   m.AuthFailures.Load(),
		ProtocolErrors: m.ProtocolErrors.Load(),
		QueriesServed:  m.QueriesServed.Load(),
		Attempts:       m.Attempts.Load(),
		Retries:        m.Retries.Load(),
		Exhausted:      m.Exhausted.Load(),
	}
}
