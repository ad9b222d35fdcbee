// Package crypto implements the key-management substrate the paper assumes:
// "two communicating nodes share a unique pairwise key". A KDF-based
// master-key scheme gives every node pair its own key, exactly the paper's
// assumption; packets are authenticated with truncated HMAC-SHA256 tags
// (TinySec-style).
//
// Keys sign and verify through their MAC, the key's HMAC pad states
// hashed once. A simulated run holds one Keyring: it derives each pair's
// MAC on first use and gives both ends the same one, so a packet pays
// for neither a key derivation nor a lookup of its pads.
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
// New and hashes both pad blocks again for every message. Here a key's
// pad blocks are hashed once, into a MAC, and each tag restores those
// two states into a pooled scratch digest: a tag costs the message's
// blocks plus one outer block, and Sign, Verify and KDF allocate
// nothing. This is the textbook HMAC construction (key ≤ block size,
// which KeySize guarantees); outputs are bit-identical to crypto/hmac
// (pinned by test), so nothing downstream — golden figures, regression
// bands — moves.

const (
	// hmacBlockSize is sha256's block size; KeySize (32) must stay ≤ it
	// or the pad construction below would need the key-hashing step.
	hmacBlockSize = 64
	ipad, opad    = 0x36, 0x5c
	// chainAt is where a marshaled sha256 state holds its chaining
	// value: after the 4-byte magic.
	chainAt = 4
)

// Compile-time guard for the no-key-hashing assumption.
var _ [hmacBlockSize - KeySize]struct{}

// MAC is one key's HMAC-SHA256 context: the sha256 chaining values after
// the inner (key⊕0x36) and outer (key⊕0x5c) pad blocks. It is 64 bytes
// and holds no pointers, so the garbage collector never scans a table of
// them.
type MAC struct {
	inner, outer [sha256.Size]byte
}

// NewMAC hashes k's two pad blocks, once for every tag the MAC makes.
func NewMAC(k Key) MAC {
	s := statePool.Get().(*macState)
	var m MAC
	s.absorbPad(&k, ipad)
	s.chain(&m.inner)
	s.absorbPad(&k, opad)
	s.chain(&m.outer)
	statePool.Put(s)
	return m
}

// Sign computes the authentication tag of msg.
func (m *MAC) Sign(msg []byte) Tag {
	s := statePool.Get().(*macState)
	var t Tag
	copy(t[:], s.hmac(m, msg))
	statePool.Put(s)
	return t
}

// Verify reports whether tag authenticates msg, in constant time.
func (m *MAC) Verify(msg []byte, tag Tag) bool {
	want := m.Sign(msg)
	return subtle.ConstantTimeCompare(want[:], tag[:]) == 1
}

// derive is KDF under m's key.
func (m *MAC) derive(context ...[]byte) Key {
	s := statePool.Get().(*macState)
	var out Key
	copy(out[:], s.hmac(m, s.context(context)))
	statePool.Put(s)
	return out
}

// stateAppender is encoding.BinaryAppender (Go 1.24), declared here so
// the module still builds with the Go version go.mod names.
type stateAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// macState is one reusable HMAC computation context. States live in a
// sync.Pool: the simulation itself is single-threaded, but experiment
// harnesses run many simulations concurrently through these functions.
type macState struct {
	h  hash.Hash
	hU encoding.BinaryUnmarshaler
	hM encoding.BinaryMarshaler
	// hA marshals h without allocating; it is nil before Go 1.24, where
	// chain falls back to hM.
	hA stateAppender
	// state is a marshaled sha256 state that has absorbed exactly one
	// block: the magic, a chaining value, an empty block buffer and
	// length 64. restore writes a chaining value into it and unmarshals
	// it; chain marshals over it to read one out.
	state []byte
	pad   [hmacBlockSize]byte
	sum   [sha256.Size]byte
	// ctxBuf is KDF's scratch for its length-prefixed context. KDF
	// copies the context in and writes it once: writing the caller's
	// slices through the hash.Hash interface would force them to escape
	// (a heap allocation per element per call).
	ctxBuf []byte
}

var statePool = sync.Pool{New: func() any {
	h := sha256.New()
	s := &macState{
		h:  h,
		hU: h.(encoding.BinaryUnmarshaler),
		hM: h.(encoding.BinaryMarshaler),
	}
	s.hA, _ = h.(stateAppender)
	h.Write(s.pad[:])
	var cv [sha256.Size]byte
	s.chain(&cv) // leaves the one-block template in s.state
	return s
}}

// absorbPad resets the digest and hashes k's pad block: k xor b,
// extended with b to the block size.
func (s *macState) absorbPad(k *Key, b byte) {
	for i := range s.pad {
		s.pad[i] = b
	}
	for i, kb := range k {
		s.pad[i] ^= kb
	}
	s.h.Reset()
	s.h.Write(s.pad[:])
}

// chain copies out the chaining value of the digest, which must have
// absorbed exactly one block.
func (s *macState) chain(cv *[sha256.Size]byte) {
	var err error
	if s.hA != nil {
		s.state, err = s.hA.AppendBinary(s.state[:0])
	} else {
		s.state, err = s.hM.MarshalBinary()
	}
	if err != nil {
		panic("crypto: sha256 state marshal: " + err.Error())
	}
	copy(cv[:], s.state[chainAt:])
}

// restore sets the digest to a one-block state with chaining value cv.
func (s *macState) restore(cv *[sha256.Size]byte) {
	copy(s.state[chainAt:], cv[:])
	if err := s.hU.UnmarshalBinary(s.state); err != nil {
		panic("crypto: sha256 state unmarshal: " + err.Error())
	}
}

// hmac returns the 32-byte HMAC of msg under m, valid until the state's
// next use.
func (s *macState) hmac(m *MAC, msg []byte) []byte {
	s.restore(&m.inner)
	s.h.Write(msg)
	isum := s.h.Sum(s.sum[:0])
	s.restore(&m.outer)
	s.h.Write(isum)
	return s.h.Sum(s.sum[:0])
}

// context length-prefixes each element and concatenates them into the
// state's scratch buffer, so concatenation is unambiguous: ("ab","c")
// must not collide with ("a","bc").
func (s *macState) context(context [][]byte) []byte {
	buf := s.ctxBuf[:0]
	for _, c := range context {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(c)))
		buf = append(buf, c...)
	}
	s.ctxBuf = buf
	return buf
}

// KDF derives a subkey from k bound to the given context labels. It
// hashes k's pad blocks directly rather than through a MAC: a one-off
// key gains nothing from keeping its pad states.
func KDF(k Key, context ...[]byte) Key {
	s := statePool.Get().(*macState)
	msg := s.context(context)
	s.absorbPad(&k, ipad)
	s.h.Write(msg)
	isum := s.h.Sum(s.sum[:0])
	s.absorbPad(&k, opad)
	s.h.Write(isum)
	var out Key
	copy(out[:], s.h.Sum(s.sum[:0]))
	statePool.Put(s)
	return out
}

// Master is a network master secret from which the master-key pairwise
// scheme derives all pairwise and base-station keys. In a real deployment
// the master is destroyed after predistribution; here it stands in for the
// predistribution ceremony. A Master is immutable once made, so
// concurrent use is safe.
type Master struct {
	secret    MAC // every derivation is a tag under the secret
	broadcast Key // derived once; each run's Keyring makes its MAC
}

// NewMaster creates a master secret from seed material.
func NewMaster(seed []byte) *Master {
	m := &Master{secret: NewMAC(KDF(Key{}, []byte("beaconsec/master"), seed))}
	m.broadcast = m.secret.derive([]byte("broadcast"))
	return m
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
	return m.secret.derive([]byte("pairwise"), buf[:])
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
	return m.secret.derive([]byte("base-station"), buf[:])
}

// ringChunk is the number of MACs in one Keyring storage chunk (32 KiB).
const ringChunk = 512

// Keyring is one run's predistributed pairwise keys. It derives each
// unordered pair's MAC once, on first use, and from then on gives both
// ends of the pair the same *MAC. Its storage holds no pointers: an
// index from the ordered pair to a slot, and chunks of MACs that never
// move, so a returned *MAC stays valid for the ring's life. A pair costs
// its 64-byte MAC plus its index entry. A Keyring is not safe for
// concurrent use; each simulated run owns one.
type Keyring struct {
	master    *Master
	broadcast MAC
	index     map[[2]ident.NodeID]int32
	chunks    []*[ringChunk]MAC
}

// NewKeyring returns an empty keyring over master's keys.
func NewKeyring(master *Master) *Keyring {
	return &Keyring{
		master:    master,
		broadcast: NewMAC(master.BroadcastKey()),
		index:     make(map[[2]ident.NodeID]int32),
	}
}

// Pair returns the MAC of the key nodes a and b share. Pair(a, b) and
// Pair(b, a) return the same pointer.
func (r *Keyring) Pair(a, b ident.NodeID) *MAC {
	if a > b {
		a, b = b, a
	}
	pair := [2]ident.NodeID{a, b}
	if i, ok := r.index[pair]; ok {
		return &r.chunks[i/ringChunk][i%ringChunk]
	}
	i := int32(len(r.index))
	if i%ringChunk == 0 {
		r.chunks = append(r.chunks, new([ringChunk]MAC))
	}
	m := &r.chunks[i/ringChunk][i%ringChunk]
	*m = NewMAC(r.master.Pairwise(a, b))
	r.index[pair] = i
	return m
}

// Broadcast returns the MAC of the network-wide discovery key.
func (r *Keyring) Broadcast() *MAC { return &r.broadcast }

// Store holds the keying material provisioned to one physical node: the
// pairwise MACs of each of its identities (its real ID plus any detecting
// pseudonyms) and the broadcast MAC.
//
// The zero value is unusable; construct with NewStore. Store takes its
// MACs from the run's Keyring, which derives each pair's once for both
// ends — equivalent, in the simulation, to having predistributed them.
type Store struct {
	keys *Keyring
	ids  []ident.NodeID
}

// NewStore provisions a node that owns the given identities (first ID is
// the node's real identity).
func NewStore(keys *Keyring, ids ...ident.NodeID) *Store {
	return &Store{keys: keys, ids: append([]ident.NodeID(nil), ids...)}
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

// Lookup returns the MAC local identity self uses with peer — the
// broadcast MAC if peer is the broadcast address — or nil if the store
// does not own self. A receiver learns from one call, and one scan of
// the identities, whether a frame is addressed to it and under which MAC
// it verifies.
func (s *Store) Lookup(self, peer ident.NodeID) *MAC {
	switch {
	case !s.Owns(self):
		return nil
	case peer == ident.Broadcast:
		return s.keys.Broadcast()
	default:
		return s.keys.Pair(self, peer)
	}
}

// Pair is Lookup for an identity the caller must own: it panics if the
// store does not own self, because using an identity without its keying
// material is always a programming error in the protocol stack.
func (s *Store) Pair(self, peer ident.NodeID) *MAC {
	m := s.Lookup(self, peer)
	if m == nil {
		panic("crypto: store does not own identity " + self.String())
	}
	return m
}

// Broadcast returns the MAC of the network-wide discovery key.
func (s *Store) Broadcast() *MAC { return s.keys.Broadcast() }
