// Package metrics provides the cheap, allocation-free instrumentation
// primitives the simulation stack records into: atomic counters,
// fixed-bucket histograms, and per-phase span accounting.
//
// Design rules, in priority order:
//
//   - The hot path costs nothing when disabled. Every pointer-receiver
//     method is a no-op on a nil receiver, so a layer holds an optional
//     *Histogram (or *Timing) and calls it unconditionally; the disabled
//     default is one nil check, no branch misprediction, no allocation.
//   - Recording never allocates. Counters are a single atomic add;
//     histograms index a pre-sized bucket slice.
//   - Snapshots are plain exported data. Every type marshals through
//     encoding/json as-is and round-trips losslessly, because the
//     experiment layer exports merged metrics machine-readably.
//   - Merging is deterministic. Merge is a field-wise sum executed by the
//     caller in a deterministic order (the trial harness merges in grid
//     order), so aggregate metrics are identical for any worker count.
package metrics

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Counter is a monotone event count. Increments are atomic, so a counter
// shared across goroutines (e.g. harness-level aggregates) stays exact;
// within the single-threaded simulation the atomic costs ~1ns. The zero
// value is ready to use and marshals as a plain JSON number.
type Counter uint64

// Inc adds one.
func (c *Counter) Inc() { atomic.AddUint64((*uint64)(c), 1) }

// Add adds n.
func (c *Counter) Add(n uint64) { atomic.AddUint64((*uint64)(c), n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return atomic.LoadUint64((*uint64)(c)) }

// Histogram is a fixed-bucket histogram with summary statistics. Bounds
// are ascending bucket upper limits; an implicit final bucket catches
// everything above the last bound, so Counts has len(Bounds)+1 entries.
// Observe on a nil *Histogram is a no-op — the disabled default.
//
// Histogram is NOT safe for concurrent Observe; each recording site owns
// its histogram and merges are explicit (like the rest of the simulation,
// which parallelizes across independent runs, not within one).
type Histogram struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// NewHistogram builds a histogram over the given ascending bucket bounds.
// It panics on unsorted bounds: bucket layout is a compile-time decision,
// never runtime input.
func NewHistogram(bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
}

// ExpBounds returns n bounds growing geometrically from start by factor:
// the standard latency-histogram layout.
func ExpBounds(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic(fmt.Sprintf("metrics: bad exponential bounds (%v, %v, %d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value. A nil receiver is a no-op.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if h.Count == 0 || v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	h.Counts[h.bucket(v)]++
}

// bucket returns the index of the bucket v falls into (binary search over
// the bounds; values above the last bound land in the overflow bucket).
func (h *Histogram) bucket(v float64) int {
	lo, hi := 0, len(h.Bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.Bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Quantile returns an upper bound for the q-quantile (q in [0, 1]) from
// the bucket counts: the bound of the bucket the quantile falls in, or
// Max for the overflow bucket. Zero when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	if math.IsNaN(q) || q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v outside [0,1]", q))
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return h.Max
		}
	}
	return h.Max
}

// Merge folds another histogram into h. The two must share a bucket
// layout (same bounds); merging mismatched layouts panics. Merging into a
// nil receiver is a no-op; merging a nil or empty other is a no-op.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil || o.Count == 0 {
		return
	}
	if len(h.Counts) != len(o.Counts) {
		panic(fmt.Sprintf("metrics: merging histograms with %d vs %d buckets", len(h.Counts), len(o.Counts)))
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if h.Count == 0 || o.Max > h.Max {
		h.Max = o.Max
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
}

// Clone returns a deep copy of h (nil for a nil receiver), for merge
// targets that start from an existing snapshot: Merge into a nil
// destination is a deliberate no-op, so accumulators adopt the first
// non-nil histogram by cloning it.
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	c := *h
	c.Bounds = append([]float64(nil), h.Bounds...)
	c.Counts = append([]uint64(nil), h.Counts...)
	return &c
}

// Span is one named phase of a run: a window of virtual time plus the
// event and transmission counts that fell inside it. Spans are recorded by
// the scenario layer at phase boundaries, so they are exact, deterministic
// accounting — not sampled profiles.
type Span struct {
	// Name identifies the phase ("announce", "detect", ...).
	Name string `json:"name"`
	// StartCycles / EndCycles bound the phase in virtual CPU cycles.
	StartCycles uint64 `json:"start_cycles"`
	EndCycles   uint64 `json:"end_cycles"`
	// Events is the number of simulator events fired during the phase.
	Events uint64 `json:"events"`
	// Transmissions is the number of radio transmissions launched during
	// the phase.
	Transmissions uint64 `json:"transmissions"`
}

// MergeSpans folds another run's spans into dst, matching by position and
// name: counters add, boundaries must agree (phase boundaries are
// deployment constants, identical across trials). An empty dst copies src.
func MergeSpans(dst, src []Span) []Span {
	if len(src) == 0 {
		return dst
	}
	if len(dst) == 0 {
		out := make([]Span, len(src))
		copy(out, src)
		return out
	}
	if len(dst) != len(src) {
		panic(fmt.Sprintf("metrics: merging %d spans into %d", len(src), len(dst)))
	}
	for i := range dst {
		if dst[i].Name != src[i].Name {
			panic(fmt.Sprintf("metrics: span %d name mismatch %q vs %q", i, dst[i].Name, src[i].Name))
		}
		dst[i].Events += src[i].Events
		dst[i].Transmissions += src[i].Transmissions
		if src[i].EndCycles > dst[i].EndCycles {
			// Trials can drain stragglers to different quiescence times;
			// keep the widest observed window.
			dst[i].EndCycles = src[i].EndCycles
		}
	}
	return dst
}
