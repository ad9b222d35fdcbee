package metrics

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Errorf("Load() = %d, want 42", got)
	}
}

func TestCounterConcurrentIncrements(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Errorf("concurrent increments lost: %d / 8000", got)
	}
}

func TestCounterMarshalsAsNumber(t *testing.T) {
	var c Counter = 7
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "7" {
		t.Errorf("Counter marshals as %s", b)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	for _, v := range []float64{0.5, 1, 5, 10, 99, 100.5} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 1, 1} // (-inf,1], (1,10], (10,100], (100,inf)
	if !reflect.DeepEqual(h.Counts, want) {
		t.Errorf("Counts = %v, want %v", h.Counts, want)
	}
	if h.Count != 6 || h.Min != 0.5 || h.Max != 100.5 {
		t.Errorf("summary wrong: %+v", h)
	}
	if h.Sum != 0.5+1+5+10+99+100.5 {
		t.Errorf("Sum = %v", h.Sum)
	}
}

func TestHistogramNilNoOps(t *testing.T) {
	var h *Histogram
	h.Observe(3)             // must not panic
	h.Merge(NewHistogram(1)) // must not panic
	if h.Quantile(0.5) != 0 {
		t.Error("nil histogram reports nonzero stats")
	}
	if h.Clone() != nil {
		t.Error("nil Clone() != nil")
	}
}

func TestHistogramClone(t *testing.T) {
	h := NewHistogram(1, 10)
	h.Observe(0.5)
	h.Observe(5)
	c := h.Clone()
	if !reflect.DeepEqual(c, h) {
		t.Fatalf("Clone = %+v, want %+v", c, h)
	}
	c.Observe(100) // must not alias the original's buckets
	if reflect.DeepEqual(c.Counts, h.Counts) || h.Count != 2 {
		t.Errorf("Clone shares state with original: %+v vs %+v", c, h)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	for v := 1; v <= 8; v++ {
		h.Observe(float64(v))
	}
	if got := h.Quantile(0.5); got != 4 {
		t.Errorf("p50 = %v, want bucket bound 4", got)
	}
	if got := h.Quantile(1); got != 8 {
		t.Errorf("p100 = %v, want 8", got)
	}
	h.Observe(1000) // overflow bucket
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("p100 with overflow = %v, want Max 1000", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(1, 10)
	b := NewHistogram(1, 10)
	a.Observe(0.5)
	a.Observe(5)
	b.Observe(50)
	a.Merge(b)
	if a.Count != 3 || a.Min != 0.5 || a.Max != 50 {
		t.Errorf("merged summary: %+v", a)
	}
	if !reflect.DeepEqual(a.Counts, []uint64{1, 1, 1}) {
		t.Errorf("merged counts: %v", a.Counts)
	}
	// Merging an empty histogram changes nothing.
	before := *a
	a.Merge(NewHistogram(1, 10))
	if !reflect.DeepEqual(before.Counts, a.Counts) || before.Min != a.Min {
		t.Error("merging empty histogram changed state")
	}
}

func TestHistogramMergeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched merge did not panic")
		}
	}()
	a, b := NewHistogram(1), NewHistogram(1, 2)
	b.Observe(1)
	a.Merge(b)
}

func TestNewHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted bounds accepted")
		}
	}()
	NewHistogram(10, 1)
}

func TestExpBounds(t *testing.T) {
	got := ExpBounds(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ExpBounds = %v, want %v", got, want)
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewHistogram(ExpBounds(1, 4, 6)...)
	for _, v := range []float64{0.1, 3, 700, 1e6} {
		h.Observe(v)
	}
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*h, back) {
		t.Errorf("round trip changed histogram:\n%+v\n%+v", *h, back)
	}
}

func TestEmptyHistogramMarshals(t *testing.T) {
	// An empty histogram must not contain Inf/NaN sentinels: those do not
	// survive encoding/json, and metrics are exported machine-readably.
	h := NewHistogram(1, 2)
	if _, err := json.Marshal(h); err != nil {
		t.Fatalf("empty histogram unmarshalable: %v", err)
	}
	if h.Min != 0 || h.Max != 0 {
		t.Errorf("empty histogram has sentinel min/max: %+v", h)
	}
}

func TestSpanMerge(t *testing.T) {
	a := []Span{{Name: "x", StartCycles: 0, EndCycles: 10, Events: 3, Transmissions: 1}}
	b := []Span{{Name: "x", StartCycles: 0, EndCycles: 12, Events: 5, Transmissions: 2}}
	out := MergeSpans(nil, a)
	out = MergeSpans(out, b)
	if out[0].Events != 8 || out[0].Transmissions != 3 {
		t.Errorf("merged span counters: %+v", out[0])
	}
	if out[0].EndCycles != 12 {
		t.Errorf("merged span kept narrow window: %+v", out[0])
	}
	// Merging must not alias the source.
	b[0].Events = 999
	if out[0].Events != 8 {
		t.Error("MergeSpans aliased its source slice")
	}
}

func TestSpanMergeNameMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("name mismatch did not panic")
		}
	}()
	MergeSpans([]Span{{Name: "a"}}, []Span{{Name: "b"}})
}
