package rng

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: sources diverged: %d != %d", i, got, want)
		}
	}
}

// TestStreamsPinned pins the first word of New, SplitIndex and Split, so
// a change to the seeding (such as Make) cannot move any stream.
func TestStreamsPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		src  *Source
		want uint64
	}{
		{"New(0)", New(0), 0x99ec5f36cb75f2b4},
		{"New(1).SplitIndex(7)", New(1).SplitIndex(7), 0xc5f0eb97bf791fb9},
		{`New(1).Split("medium")`, New(1).Split("medium"), 0xc782ba647421a976},
	} {
		if got := c.src.Uint64(); got != c.want {
			t.Errorf("%s: first word %#x, want %#x", c.name, got, c.want)
		}
	}
}

// TestMakeMatchesNew checks that the by-value constructor seeds exactly
// as New does, and that a Source made on the stack allocates nothing.
func TestMakeMatchesNew(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 63, math.MaxUint64} {
		if got, want := Make(seed), *New(seed); got != want {
			t.Errorf("Make(%d) = %v, New gives %v", seed, got, want)
		}
	}
	var sink uint64
	if avg := testing.AllocsPerRun(100, func() {
		src := Make(sink)
		sink += src.Uint64()
	}); avg != 0 {
		t.Errorf("a made Source allocates %.1f times", avg)
	}
}

// TestMakeIndexMatchesSplitIndex checks that the by-value index stream
// is exactly the stream SplitIndex returns, and that deriving one into a
// local allocates nothing.
func TestMakeIndexMatchesSplitIndex(t *testing.T) {
	root := New(7).Split("metro-probes")
	for _, i := range []uint64{0, 1, 1 << 32, math.MaxUint64} {
		got, want := root.MakeIndex(i), *root.SplitIndex(i)
		if got != want {
			t.Errorf("MakeIndex(%d) = %v, SplitIndex gives %v", i, got, want)
		}
		if a, b := got.Uint64(), want.Uint64(); a != b {
			t.Errorf("MakeIndex(%d) first word %#x, SplitIndex %#x", i, a, b)
		}
	}
	var sink uint64
	if avg := testing.AllocsPerRun(100, func() {
		src := root.MakeIndex(sink)
		sink += src.Uint64()
	}); avg != 0 {
		t.Errorf("a by-value index stream allocates %.1f times", avg)
	}
}

// TestMakeSplitMatchesSprintfLabels checks that every per-node label the
// simulator builds with MakeSplit names the stream Split gives for the
// label fmt.Sprintf spells, first draws included, and that the by-value
// stream allocates nothing.
func TestMakeSplitMatchesSprintfLabels(t *testing.T) {
	root := New(7).Split("nodes")
	ids := []uint64{0, 1, 255, 65535}
	for _, prefix := range []string{"mac", "whdet", "detsched", "reqsched"} {
		for _, id := range ids {
			got, want := root.MakeSplit(prefix, id), *root.Split(fmt.Sprintf("%s/%d", prefix, id))
			for k := 0; k < 3; k++ {
				if a, b := got.Uint64(), want.Uint64(); a != b {
					t.Errorf("MakeSplit(%q, %d) draw %d = %#x, Split gives %#x", prefix, id, k, a, b)
				}
			}
		}
	}
	for _, a := range ids {
		for _, b := range ids {
			got, want := root.MakeSplit("strategy", a, b), *root.Split(fmt.Sprintf("strategy/%d/%d", a, b))
			for k := 0; k < 3; k++ {
				if x, y := got.Uint64(), want.Uint64(); x != y {
					t.Errorf("MakeSplit(strategy, %d, %d) draw %d = %#x, Split gives %#x", a, b, k, x, y)
				}
			}
		}
	}
	var sink uint64
	if avg := testing.AllocsPerRun(100, func() {
		src := root.MakeSplit("strategy", sink, 65535)
		sink += src.Uint64() & 0xffff
	}); avg != 0 {
		t.Errorf("a by-value split stream allocates %.1f times", avg)
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("seeds 1 and 2 produced %d identical draws out of 64", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	s := New(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 32; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) < 32 {
		t.Errorf("seed 0 produced repeats in first 32 draws: %d unique", len(seen))
	}
}

func TestSplitIndependentAndStable(t *testing.T) {
	parent := New(7)
	a1 := parent.Split("radio")
	b := parent.Split("mac")
	a2 := parent.Split("radio")
	for i := 0; i < 50; i++ {
		x := a1.Uint64()
		if x != a2.Uint64() {
			t.Fatalf("same-label splits diverged at draw %d", i)
		}
		if x == b.Uint64() {
			t.Fatalf("different-label splits collided at draw %d", i)
		}
	}
}

func TestSplitDoesNotConsumeParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Split("x")
	_ = a.SplitIndex(3)
	for i := 0; i < 20; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split consumed parent state")
		}
	}
}

func TestSplitIndexDistinct(t *testing.T) {
	parent := New(11)
	s0 := parent.SplitIndex(0)
	s1 := parent.SplitIndex(1)
	if s0.Uint64() == s1.Uint64() {
		t.Error("adjacent SplitIndex streams collided on first draw")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(13)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(17)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(19)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := s.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	s := New(23)
	const buckets, n = 10, 100000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[s.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates from %v by more than 5 sigma", b, c, want)
		}
	}
}

func TestUniformRange(t *testing.T) {
	s := New(29)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(-3, 8)
		if v < -3 || v >= 8 {
			t.Fatalf("Uniform(-3,8) out of range: %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(31)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) hit rate = %v", p)
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(33)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(37)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(41)
	f := func(n uint8) bool {
		m := int(n % 64)
		p := s.Perm(m)
		if len(p) != m {
			return false
		}
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= s.Uint64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.NormFloat64()
	}
	_ = sink
}
