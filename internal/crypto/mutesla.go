package crypto

import (
	"encoding/binary"
	"fmt"

	"beaconsec/internal/rng"
	"beaconsec/internal/sim"
)

// This file implements µTESLA (Perrig et al., SPINS), the broadcast
// authentication scheme the paper cites for base-station-to-network
// messages — the mechanism behind "we assume that the base station has
// mechanisms to revoke malicious beacon nodes": a revocation broadcast
// must be authenticated to every sensor without per-receiver signatures.
//
// The base station owns a one-way hash chain K_n -> K_{n-1} -> ... -> K_0
// (K_{i-1} = H(K_i)) and divides time into intervals; messages in
// interval i are MACed with K_i, which is disclosed only d intervals
// later. Receivers hold the chain anchor K_0 and verify disclosed keys by
// hashing back to the newest authenticated chain element.

// ChainLink applies the µTESLA one-way function.
func ChainLink(k Key) Key { return KDF(k, []byte("mutesla-chain")) }

// TeslaChain is the base station's key chain plus its disclosure
// schedule.
type TeslaChain struct {
	keys     []Key // keys[i] is K_i; keys[0] is the anchor
	interval sim.Time
	delay    int // disclosure lag d, in intervals
	start    sim.Time
}

// NewTeslaChain generates a chain of n keys with the given interval
// duration and disclosure delay, anchored at time start.
func NewTeslaChain(n int, interval sim.Time, delay int, start sim.Time, src *rng.Source) *TeslaChain {
	if n < 2 {
		panic(fmt.Sprintf("crypto: tesla chain length %d must be >= 2", n))
	}
	if interval == 0 {
		panic("crypto: tesla interval must be positive")
	}
	if delay < 1 {
		panic(fmt.Sprintf("crypto: tesla disclosure delay %d must be >= 1", delay))
	}
	keys := make([]Key, n)
	var seed Key
	for w := 0; w < KeySize/8; w++ {
		binary.BigEndian.PutUint64(seed[w*8:], src.Uint64())
	}
	keys[n-1] = seed
	for i := n - 2; i >= 0; i-- {
		keys[i] = ChainLink(keys[i+1])
	}
	return &TeslaChain{keys: keys, interval: interval, delay: delay, start: start}
}

// Anchor returns K_0, the commitment predistributed to every node.
func (c *TeslaChain) Anchor() Key { return c.keys[0] }

// IntervalAt maps a time to its interval index (0-based); times before
// the chain start map to 0.
func (c *TeslaChain) IntervalAt(t sim.Time) int {
	if t < c.start {
		return 0
	}
	i := int((t - c.start) / c.interval)
	if i >= len(c.keys) {
		i = len(c.keys) - 1
	}
	return i
}

// Sign MACs msg with the current interval's (still undisclosed) key and
// returns the tag plus the interval index the receiver must buffer
// against.
func (c *TeslaChain) Sign(msg []byte, now sim.Time) (Tag, int) {
	i := c.IntervalAt(now)
	m := NewMAC(c.keys[i])
	return m.Sign(msg), i
}

// Disclosable returns the newest key the station may disclose at time
// now (interval index and key); ok is false while nothing beyond the
// anchor is disclosable.
func (c *TeslaChain) Disclosable(now sim.Time) (int, Key, bool) {
	i := c.IntervalAt(now) - c.delay
	if i < 1 {
		return 0, Key{}, false
	}
	return i, c.keys[i], true
}

// TeslaReceiver verifies broadcast messages with delayed key disclosure.
// It buffers (msg, tag, interval) triples and releases them once the
// interval's key arrives and authenticates.
type TeslaReceiver struct {
	anchor   Key // newest authenticated chain key
	anchorIx int
	interval sim.Time
	delay    int
	start    sim.Time

	pending []teslaPending
	// Accepted receives authenticated messages.
	Accepted [][]byte
	// Rejected counts messages whose tag failed under the disclosed key.
	Rejected int
	// Unsafe counts messages discarded by the security condition (they
	// arrived after their key could already have been disclosed, so a
	// forger might have known it).
	Unsafe int
}

type teslaPending struct {
	msg      []byte
	tag      Tag
	interval int
}

// NewTeslaReceiver builds a receiver from the predistributed anchor and
// the chain's public schedule.
func NewTeslaReceiver(anchor Key, interval sim.Time, delay int, start sim.Time) *TeslaReceiver {
	return &TeslaReceiver{anchor: anchor, interval: interval, delay: delay, start: start}
}

func (r *TeslaReceiver) intervalAt(t sim.Time) int {
	if t < r.start {
		return 0
	}
	return int((t - r.start) / r.interval)
}

// Receive buffers a broadcast message heard at time now, tagged for the
// given interval. Messages violating the security condition (the claimed
// interval's key may already be public) are dropped as unsafe.
func (r *TeslaReceiver) Receive(msg []byte, tag Tag, interval int, now sim.Time) {
	if r.intervalAt(now) >= interval+r.delay {
		// Key could already be disclosed: a forger may know it.
		r.Unsafe++
		return
	}
	buf := make([]byte, len(msg))
	copy(buf, msg)
	r.pending = append(r.pending, teslaPending{msg: buf, tag: tag, interval: interval})
}

// Disclose ingests a disclosed key for the given interval: the receiver
// authenticates the key against its chain anchor, then verifies and
// releases buffered messages from that interval.
func (r *TeslaReceiver) Disclose(key Key, interval int) error {
	if interval <= r.anchorIx {
		return fmt.Errorf("crypto: stale tesla key for interval %d (anchor %d)", interval, r.anchorIx)
	}
	// Hash the candidate back to the newest authenticated key.
	k := key
	for i := interval; i > r.anchorIx; i-- {
		k = ChainLink(k)
	}
	if k != r.anchor {
		return fmt.Errorf("crypto: tesla key for interval %d fails chain verification", interval)
	}
	r.anchor = key
	r.anchorIx = interval

	m := NewMAC(key)
	kept := r.pending[:0]
	for _, p := range r.pending {
		if p.interval != interval {
			kept = append(kept, p)
			continue
		}
		if m.Verify(p.msg, p.tag) {
			r.Accepted = append(r.Accepted, p.msg)
		} else {
			r.Rejected++
		}
	}
	r.pending = kept
	return nil
}
