// Package crypto implements the key-management substrate the paper assumes:
// "two communicating nodes share a unique pairwise key", discharged by
// implementing the cited mechanisms — the Eschenauer–Gligor random key-pool
// predistribution scheme (pool.go), the Chan–Perrig–Song q-composite
// variant, and a KDF-based master-key pairwise scheme — plus packet
// authentication with truncated HMAC-SHA256 tags (TinySec-style).
//
// The simulation's protocol stack uses the master-key pairwise scheme by
// default (every node pair shares a unique key, exactly the paper's
// assumption); the predistribution schemes are provided as validated
// substrates with their own connectivity analysis.
package crypto

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding"
	"encoding/binary"
	"hash"
	"sync"

	"beaconsec/internal/ident"
)

// KeySize is the size of symmetric keys, in bytes.
const KeySize = 32

// TagSize is the size of packet authentication tags. Truncated to 8 bytes
// following TinySec/µTESLA practice for mote-class packets; forgery
// probability 2^-64 per attempt is far below the replay/detection rates
// the paper analyzes.
const TagSize = 8

// Key is a symmetric key.
type Key [KeySize]byte

// Tag is a packet authentication tag.
type Tag [TagSize]byte

// HMAC-SHA256 fast path. crypto/hmac allocates two fresh digests per
// New, which made every packet sign and every receiver-side verify heap
// traffic on the simulator's hottest path. The implementation below is
// the textbook HMAC construction (key ≤ block size, which KeySize
// guarantees) over reusable sha256 states, with a per-state cache of
// marshaled pad midstates so repeated keys skip the two pad block
// compressions too. Steady-state Sign/Verify/KDF do zero heap
// allocations. Outputs are bit-identical to crypto/hmac (pinned by
// test), so nothing downstream — golden figures, regression bands —
// moves.

const (
	// hmacBlockSize is sha256's block size; KeySize (32) must stay ≤ it
	// or the pad construction below would need the key-hashing step.
	hmacBlockSize = 64
	// macCacheMax bounds each pooled state's key-midstate cache; on
	// overflow the whole cache is dropped (keys cluster in time, so the
	// refill cost amortizes away).
	macCacheMax = 8192
)

// Compile-time guard for the no-key-hashing assumption.
var _ [hmacBlockSize - KeySize]struct{}

// macEntry is the sha256 state pair for one key after absorbing the
// inner (0x36) and outer (0x5c) pads.
type macEntry struct {
	inner, outer []byte
}

// macState is one reusable HMAC computation context. States live in a
// sync.Pool: the simulation itself is single-threaded, but experiment
// harnesses run many simulations concurrently through these package
// functions.
type macState struct {
	inner, outer   hash.Hash
	innerM, outerM encoding.BinaryMarshaler
	innerU, outerU encoding.BinaryUnmarshaler
	cache          map[Key]*macEntry
	isum, osum     [sha256.Size]byte
	// ctxBuf is KDF's scratch for its length-prefixed context. KDF
	// copies the context in and writes it once: writing the caller's
	// slices through the hash.Hash interface would force them to escape
	// (a heap allocation per element per call).
	ctxBuf []byte
}

var statePool = sync.Pool{New: func() any {
	s := &macState{
		inner: sha256.New(),
		outer: sha256.New(),
		cache: make(map[Key]*macEntry, 64),
	}
	s.innerM = s.inner.(encoding.BinaryMarshaler)
	s.outerM = s.outer.(encoding.BinaryMarshaler)
	s.innerU = s.inner.(encoding.BinaryUnmarshaler)
	s.outerU = s.outer.(encoding.BinaryUnmarshaler)
	return s
}}

func (s *macState) entry(k Key) *macEntry {
	if e, ok := s.cache[k]; ok {
		return e
	}
	var pad [hmacBlockSize]byte
	for i := range pad {
		var b byte
		if i < KeySize {
			b = k[i]
		}
		pad[i] = b ^ 0x36
	}
	s.inner.Reset()
	s.inner.Write(pad[:])
	innerState, err := s.innerM.MarshalBinary()
	if err != nil {
		panic("crypto: sha256 state marshal: " + err.Error())
	}
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	s.outer.Reset()
	s.outer.Write(pad[:])
	outerState, err := s.outerM.MarshalBinary()
	if err != nil {
		panic("crypto: sha256 state marshal: " + err.Error())
	}
	if len(s.cache) >= macCacheMax {
		clear(s.cache)
	}
	e := &macEntry{inner: innerState, outer: outerState}
	s.cache[k] = e
	return e
}

// begin restores the inner digest to "pads absorbed" for k; the caller
// then Writes the message into s.inner and calls finish.
func (s *macState) begin(k Key) *macEntry {
	e := s.entry(k)
	if err := s.innerU.UnmarshalBinary(e.inner); err != nil {
		panic("crypto: sha256 state unmarshal: " + err.Error())
	}
	return e
}

// finish completes the outer hash and returns the 32-byte MAC, valid
// until the state's next use.
func (s *macState) finish(e *macEntry) []byte {
	isum := s.inner.Sum(s.isum[:0])
	if err := s.outerU.UnmarshalBinary(e.outer); err != nil {
		panic("crypto: sha256 state unmarshal: " + err.Error())
	}
	s.outer.Write(isum)
	return s.outer.Sum(s.osum[:0])
}

// KDF derives a subkey from k bound to the given context labels.
func KDF(k Key, context ...[]byte) Key {
	s := statePool.Get().(*macState)
	e := s.begin(k)
	buf := s.ctxBuf[:0]
	for _, c := range context {
		// Length-prefix each context element so concatenation is
		// unambiguous (("ab","c") must not collide with ("a","bc")).
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(c)))
		buf = append(buf, c...)
	}
	s.inner.Write(buf)
	s.ctxBuf = buf
	var out Key
	copy(out[:], s.finish(e))
	statePool.Put(s)
	return out
}

// Sign computes the authentication tag of msg under k.
func Sign(k Key, msg []byte) Tag {
	s := statePool.Get().(*macState)
	e := s.begin(k)
	s.inner.Write(msg)
	var t Tag
	copy(t[:], s.finish(e))
	statePool.Put(s)
	return t
}

// Verify reports whether tag authenticates msg under k, in constant time.
func Verify(k Key, msg []byte, tag Tag) bool {
	want := Sign(k, msg)
	return subtle.ConstantTimeCompare(want[:], tag[:]) == 1
}

// Master is a network master secret from which the master-key pairwise
// scheme derives all pairwise and base-station keys. In a real deployment
// the master is destroyed after predistribution; here it stands in for the
// predistribution ceremony. A Master is immutable once made, so
// concurrent use is safe.
type Master struct {
	secret    Key
	broadcast Key // derived once: every broadcast send and receive reads it
}

// NewMaster creates a master secret from seed material.
func NewMaster(seed []byte) *Master {
	secret := KDF(Key{}, []byte("beaconsec/master"), seed)
	return &Master{secret: secret, broadcast: KDF(secret, []byte("broadcast"))}
}

// Pairwise returns the unique key shared by nodes a and b. It is
// symmetric: Pairwise(a,b) == Pairwise(b,a).
func (m *Master) Pairwise(a, b ident.NodeID) Key {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	var buf [4]byte
	binary.BigEndian.PutUint16(buf[0:], uint16(lo))
	binary.BigEndian.PutUint16(buf[2:], uint16(hi))
	return KDF(m.secret, []byte("pairwise"), buf[:])
}

// BroadcastKey returns the network-wide key used only for unauthenticated-
// in-spirit discovery broadcasts (hello packets). It provides integrity
// against bit errors, not authenticity: every provisioned node holds it,
// so a compromised node can forge hellos. Nothing security-relevant rides
// on hellos — a forged hello only creates a neighbor-table entry whose
// subsequent unicast exchanges are authenticated pairwise.
func (m *Master) BroadcastKey() Key { return m.broadcast }

// BaseStationKey returns the unique key node id shares with the base
// station (paper §3.1: "each beacon node shares a unique random key with
// the base station").
func (m *Master) BaseStationKey(id ident.NodeID) Key {
	var buf [2]byte
	binary.BigEndian.PutUint16(buf[:], uint16(id))
	return KDF(m.secret, []byte("base-station"), buf[:])
}

// Store holds the keying material provisioned to one physical node: the
// pairwise keys for each of its identities (its real ID plus any detecting
// pseudonyms) and its base-station key.
//
// The zero value is unusable; construct with NewStore. Store derives
// pairwise and base-station keys on demand from the master reference —
// equivalent, in the simulation, to having predistributed them.
type Store struct {
	master *Master
	ids    []ident.NodeID
}

// NewStore provisions a node that owns the given identities (first ID is
// the node's real identity).
func NewStore(master *Master, ids ...ident.NodeID) *Store {
	return &Store{master: master, ids: append([]ident.NodeID(nil), ids...)}
}

// Owns reports whether this node holds keying material for identity id.
func (s *Store) Owns(id ident.NodeID) bool {
	for _, own := range s.ids {
		if own == id {
			return true
		}
	}
	return false
}

// Identities returns a copy of the identities this store holds material
// for.
func (s *Store) Identities() []ident.NodeID {
	return append([]ident.NodeID(nil), s.ids...)
}

// PairwiseKey returns the key shared between local identity self and peer.
// It panics if the store does not own self: using an identity without its
// keying material is always a programming error in the protocol stack.
func (s *Store) PairwiseKey(self, peer ident.NodeID) Key {
	if !s.Owns(self) {
		panic("crypto: store does not own identity " + self.String())
	}
	return s.master.Pairwise(self, peer)
}

// BroadcastKey returns the network-wide discovery key.
func (s *Store) BroadcastKey() Key {
	return s.master.BroadcastKey()
}

// BaseStationKey returns the key identity self shares with the base
// station. It panics if the store does not own self.
func (s *Store) BaseStationKey(self ident.NodeID) Key {
	if !s.Owns(self) {
		panic("crypto: store does not own identity " + self.String())
	}
	return s.master.BaseStationKey(self)
}
