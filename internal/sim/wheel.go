package sim

import (
	"math/bits"
	"slices"
)

// wheelQueue is a hierarchical timing wheel: 6 levels of 4096 slots each,
// covering the full 64-bit cycle range (level l spans 2^(12l) cycles per
// slot). An event at absolute time `at` is filed at the level of the
// highest bit in which `at` differs from the wheel's serving cursor `cur`
// — so near-future events land in the bottom rung (level 0, one exact
// cycle per slot) and far-future events in coarse overflow rungs that are
// re-filed ("cascaded") to finer levels as the cursor approaches them.
// The 12-bit rung width is a cascade trade: most MAC/phy timer horizons
// fit in one or two rungs, so an event is usually filed once and served,
// never touched cold in between; the price is a 64-word occupancy bitmap
// per level, whose next-slot scan a one-word summary of its nonzero words
// keeps at two TrailingZeros64 even for a near-empty queue.
//
// Schedule and cancel are O(1); pop is amortized O(1) for short-horizon
// timer distributions (an event cascades once per nonzero base-4096 digit
// of its remaining delay, at most 5 times). Slot membership is an
// intrusive singly-linked list through Event.next, so a pending event
// costs zero additional allocations. Once the queue has held
// lanedPending events, a slot above level 0 is wheelLanes lists
// ("lanes"), filed round-robin, and a cascade takes one event from each
// lane in turn: each step along one list is a dependent load of a cold
// event, and interleaving wheelLanes independent chains lets the CPU
// overlap those misses instead of waiting on each. A smaller queue keeps
// one list per slot, and a level-0 slot always does: it holds one time,
// and serving it copies the list into the ready buffer, which is sorted
// by seq anyway.
//
// Determinism contract (DESIGN.md §13): pops are in ascending (at, seq)
// order, byte-identical to the min-heap oracle in heap_test.go. Two
// mechanisms make that hold:
//
//   - Level-0 slots are single-time: an event is at level 0 iff its time
//     differs from cur only in the low 12 bits, and its slot index IS
//     those bits, so every event in one level-0 slot shares one exact
//     `at`. Serving a slot therefore only needs to order by seq.
//   - Cascading prepends to slot lists in arbitrary order (lanes only
//     change which arbitrary order), so the served slot is sorted by seq
//     into the ready buffer before popping (the "sorted bottom rung" of a
//     ladder queue). Events pushed at the currently-serving time while the
//     buffer drains have seqs larger than everything in flight and are
//     served in a later sorted batch.
type wheelQueue struct {
	// cur is the serving cursor: every queued event has at ≥ cur, except
	// transiently inside rewind. Slot placement is relative to cur.
	cur uint64
	// ready holds the current level-0 slot's events in ascending seq;
	// ready[head:] are unserved. The backing array is reused across slots
	// so steady-state serving does not allocate.
	ready []*Event
	head  int
	n     int64 // queued events, including cancelled-but-unpopped
	// occupied[l] has bit s (word s/64, bit s%64) set iff slot s of
	// level l is non-empty, and words[l] has bit w set iff
	// occupied[l][w] is nonzero (wheelWords is 64, one bit per word), so
	// finding the next occupied slot is two TrailingZeros64 per level
	// even when a sparse queue leaves most words empty.
	occupied [wheelLevels][wheelWords]uint64
	words    [wheelLevels]uint64
	// bottom is level 0 and upper[l-1] is level l ≥ 1, each allocated
	// when its level first files an event: a small queue (an RTT
	// calibration pair) touches one or two levels, so it never pays to
	// zero, or the GC to scan, the other arrays. Slot s of an upper level
	// is upper[l-1][s<<laneBits:][:1<<laneBits], one list per lane.
	bottom *[wheelSlots]*Event
	upper  [wheelLevels - 1][]*Event
	// laneBits is 0 until the queue first holds lanedPending events (see
	// widen), then wheelLaneBits. lane counts laned placements; its low
	// bits pick the next lane round-robin.
	laneBits uint
	lane     uint64
}

const (
	wheelBits   = 12
	wheelSlots  = 1 << wheelBits // 4096
	wheelMask   = wheelSlots - 1
	wheelWords  = wheelSlots / 64                  // occupancy words per level
	wheelLevels = (64 + wheelBits - 1) / wheelBits // 6, covers all 64 bits
	// A laned wheel has wheelLanes lists in each upper-level slot.
	wheelLaneBits = 2
	wheelLanes    = 1 << wheelLaneBits
	// lanedPending is the queue size at which a wheel takes lanes. A
	// queue that never holds this many events (a paper-scale run holds
	// under 10k, a calibration pair two) keeps 32 KB levels: its events
	// mostly stay cached between filing and cascading, so lanes would
	// cost it memory and save little. A metro shard holds hundreds of
	// thousands.
	lanedPending = 1 << 16
)

func newWheelQueue() *wheelQueue {
	return &wheelQueue{ready: make([]*Event, 0, initialQueueCap)}
}

// levelOf returns the wheel level for a nonzero at⊕cur difference: the
// level containing the highest differing bit.
func levelOf(x uint64) int {
	return (bits.Len64(x) - 1) / wheelBits
}

func (w *wheelQueue) push(ev *Event) {
	ev.queued = true
	w.n++
	if w.n >= lanedPending && w.laneBits == 0 {
		w.widen()
	}
	if uint64(ev.at) < w.cur {
		// The cursor overshot this time: nextAt advances cur to the
		// minimum pending event, which can exceed the clock after
		// RunUntil stops at an earlier deadline. Re-file the affected
		// rungs with the cursor moved back (rare; see rewind).
		w.rewind(uint64(ev.at))
	}
	w.place(ev)
}

// place files ev into the slot its time selects relative to cur. It must
// only be called with at ≥ cur.
func (w *wheelQueue) place(ev *Event) {
	at := uint64(ev.at)
	l, s := 0, at&wheelMask
	if x := at ^ w.cur; x > wheelMask {
		l = levelOf(x)
		s = (at >> (uint(l) * wheelBits)) & wheelMask
		up := w.upper[l-1]
		if up == nil {
			up = make([]*Event, wheelSlots<<w.laneBits)
			w.upper[l-1] = up
		}
		i := s
		if w.laneBits != 0 {
			i = s<<wheelLaneBits | w.lane&(wheelLanes-1)
			w.lane++
		}
		ev.next = up[i]
		up[i] = ev
	} else {
		if w.bottom == nil {
			w.bottom = new([wheelSlots]*Event)
		}
		ev.next = w.bottom[s]
		w.bottom[s] = ev
	}
	w.occupied[l][s>>6] |= 1 << (s & 63)
	w.words[l] |= 1 << (s >> 6)
}

// nextOccupied returns the first occupied slot ≥ from at level l, or -1
// when the rest of the level is empty.
func (w *wheelQueue) nextOccupied(l int, from uint64) int {
	word := from >> 6
	if m := w.occupied[l][word] &^ (1<<(from&63) - 1); m != 0 {
		return int(word<<6) + bits.TrailingZeros64(m)
	}
	// 2<<63 wraps to 0, so past the last word the mask clears everything.
	later := w.words[l] &^ (2<<word - 1)
	if later == 0 {
		return -1
	}
	word = uint64(bits.TrailingZeros64(later))
	return int(word<<6) + bits.TrailingZeros64(w.occupied[l][word])
}

// ensureReady makes ready[head] the minimum queued event, advancing the
// cursor and cascading overflow rungs as needed. It reports false when
// the queue is empty.
func (w *wheelQueue) ensureReady() bool {
	for w.head >= len(w.ready) {
		if w.n == 0 {
			return false
		}
		w.advance()
	}
	return true
}

// advance finds the first occupied slot at or after the cursor, scanning
// levels bottom-up. A level-0 hit becomes the next ready batch; a coarser
// hit moves the cursor to the slot's start and cascades its events down
// (each strictly decreases its level, so this terminates).
func (w *wheelQueue) advance() {
	for l := 0; l < wheelLevels; l++ {
		shift := uint(l) * wheelBits
		curSlot := (w.cur >> shift) & wheelMask
		sl := w.nextOccupied(l, curSlot)
		if sl < 0 {
			continue
		}
		s := uint64(sl)
		if w.occupied[l][s>>6] &^= 1 << (s & 63); w.occupied[l][s>>6] == 0 {
			w.words[l] &^= 1 << (s >> 6)
		}
		if l == 0 {
			// Bottom rung: a single-time slot. cur keeps its high bits;
			// the slot index is exactly the served time's low bits.
			w.cur = w.cur&^wheelMask | s
			w.ready = unlink(w.ready[:0], &w.bottom[s])
			w.head = 0
			if len(w.ready) > 1 {
				slices.SortFunc(w.ready, func(a, b *Event) int {
					switch {
					case a.seq < b.seq:
						return -1
					case a.seq > b.seq:
						return 1
					default:
						return 0
					}
				})
			}
			return
		}
		if s != curSlot {
			// Jump the cursor to the slot's start: every event in the
			// slot has these high bits and arbitrary lower bits, so all
			// remain ≥ cur after the jump.
			span := uint64(1) << (shift + wheelBits)
			w.cur = w.cur&^(span-1) | s<<shift
		}
		// Cascade: re-filing relative to the new cursor strictly lowers
		// each event's level (its bits at this level now match cur's).
		up := w.upper[l-1]
		if w.laneBits == 0 {
			ev := up[s]
			up[s] = nil
			for ev != nil {
				next := ev.next
				ev.next = nil
				w.place(ev)
				ev = next
			}
			return
		}
		// One event per lane in turn, so the lanes' cold loads overlap.
		lanes := (*[wheelLanes]*Event)(up[s<<wheelLaneBits:])
		heads := *lanes
		*lanes = [wheelLanes]*Event{}
		for more := true; more; {
			more = false
			for k, ev := range heads {
				if ev != nil {
					heads[k] = ev.next
					ev.next = nil
					w.place(ev)
					more = true
				}
			}
		}
		return
	}
	panic("sim: wheel invariant broken: n > 0 but no occupied slot")
}

// rewind moves the cursor back to at < cur. Levels at or above the level
// where at and cur diverge keep valid placements (their slot bits are
// relative to high cursor bits that do not change); everything below —
// plus any unserved ready events — is re-filed relative to the new
// cursor. This is the rare path: it only runs when a push lands between
// the clock and an overshot cursor, never in steady-state serving.
func (w *wheelQueue) rewind(at uint64) {
	div := levelOf(at ^ w.cur)
	var batch []*Event
	for l := 0; l < div; l++ {
		for ws := w.words[l]; ws != 0; ws &= ws - 1 {
			word := bits.TrailingZeros64(ws)
			for m := w.occupied[l][word]; m != 0; m &= m - 1 {
				s := word<<6 + bits.TrailingZeros64(m)
				if l == 0 {
					batch = unlink(batch, &w.bottom[s])
					continue
				}
				lanes := w.upper[l-1][s<<w.laneBits:][:1<<w.laneBits]
				for k := range lanes {
					batch = unlink(batch, &lanes[k])
				}
			}
			w.occupied[l][word] = 0
		}
		w.words[l] = 0
	}
	batch = append(batch, w.ready[w.head:]...)
	clear(w.ready) // drop stale refs so recycled events stay collectable
	w.ready = w.ready[:0]
	w.head = 0
	w.cur = at
	for _, ev := range batch {
		w.place(ev)
	}
}

// widen gives every upper-level slot wheelLanes lists. Each slot's list
// moves whole into its first lane, so no queued event is touched.
func (w *wheelQueue) widen() {
	w.laneBits = wheelLaneBits
	for l, old := range w.upper {
		if old == nil {
			continue
		}
		up := make([]*Event, wheelSlots<<wheelLaneBits)
		for s, head := range old {
			up[s<<wheelLaneBits] = head
		}
		w.upper[l] = up
	}
}

// unlink appends the list at *head to batch, clearing every link, and
// empties the list.
func unlink(batch []*Event, head **Event) []*Event {
	for ev := *head; ev != nil; {
		next := ev.next
		ev.next = nil
		batch = append(batch, ev)
		ev = next
	}
	*head = nil
	return batch
}

func (w *wheelQueue) pop() *Event {
	if !w.ensureReady() {
		panic("sim: pop from empty wheel queue")
	}
	ev := w.ready[w.head]
	w.ready[w.head] = nil
	w.head++
	w.n--
	ev.queued = false
	return ev
}

func (w *wheelQueue) size() int64 { return w.n }

func (w *wheelQueue) nextAt() (Time, bool) {
	if !w.ensureReady() {
		return 0, false
	}
	return w.ready[w.head].at, true
}
