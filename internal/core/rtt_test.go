package core

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"beaconsec/internal/phy"
)

func calibrate(t *testing.T, trials int, seed uint64) Calibration {
	t.Helper()
	c, err := CalibrateRTT(trials, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCalibrateRTTBasic(t *testing.T) {
	c := calibrate(t, 2000, 1)
	if len(c.samples) != 2000 {
		t.Fatalf("%d samples", len(c.samples))
	}
	if c.XMin() < 4*phy.JitterMin-1 {
		t.Errorf("XMin = %v below theoretical floor %v", c.XMin(), 4*phy.JitterMin)
	}
	if c.XMax() > 4*phy.JitterMax+4 {
		t.Errorf("XMax = %v above theoretical ceiling %v", c.XMax(), 4*phy.JitterMax)
	}
	if c.XMin() >= c.XMax() {
		t.Errorf("XMin %v >= XMax %v", c.XMin(), c.XMax())
	}
}

func TestCalibrationSpreadNear4Point5Bits(t *testing.T) {
	// The paper's Figure 4 finding: the no-attack RTT spread is about
	// 4.5 bit-times. With 10,000 trials the empirical spread approaches
	// the jitter model's designed 4.5-bit range from below.
	c := calibrate(t, 10000, 2)
	spread := c.SpreadBits()
	if spread < 3.5 || spread > 4.6 {
		t.Errorf("RTT spread = %.2f bit-times, want ≈ 4.5", spread)
	}
}

func TestCalibrationCDFMonotone(t *testing.T) {
	c := calibrate(t, 3000, 3)
	if got := c.CDF(c.XMin() - 1); got != 0 {
		t.Errorf("CDF below x_min = %v, want 0", got)
	}
	if got := c.CDF(c.XMax()); got != 1 {
		t.Errorf("CDF at x_max = %v, want 1 (x_max is 'minimum x with F(x)=1')", got)
	}
	prev := -1.0
	for x := c.XMin() - 100; x <= c.XMax()+100; x += 50 {
		f := c.CDF(x)
		if f < prev {
			t.Fatalf("CDF not monotone at %v: %v < %v", x, f, prev)
		}
		if f < 0 || f > 1 {
			t.Fatalf("CDF out of [0,1] at %v: %v", x, f)
		}
		prev = f
	}
}

func TestCalibrationQuantile(t *testing.T) {
	c := calibrate(t, 1000, 4)
	if q := c.Quantile(0); q != c.XMin() {
		t.Errorf("Quantile(0) = %v, want XMin %v", q, c.XMin())
	}
	if q := c.Quantile(1); q != c.XMax() {
		t.Errorf("Quantile(1) = %v, want XMax %v", q, c.XMax())
	}
	med := c.Quantile(0.5)
	if med < c.XMin() || med > c.XMax() {
		t.Errorf("median %v outside [%v, %v]", med, c.XMin(), c.XMax())
	}
}

func TestCalibrationDeterministicPerSeed(t *testing.T) {
	a := calibrate(t, 500, 7)
	b := calibrate(t, 500, 7)
	if a.XMin() != b.XMin() || a.XMax() != b.XMax() {
		t.Error("same-seed calibrations differ")
	}
	c := calibrate(t, 500, 8)
	if a.XMax() == c.XMax() && a.XMin() == c.XMin() {
		t.Error("different-seed calibrations identical (suspicious)")
	}
}

func TestThresholdSeparatesBenignFromReplay(t *testing.T) {
	// The paper's two claims, as one property:
	// (1) benign exchanges from fresh seeds stay under the threshold
	//     calibrated on a different seed (no false positives);
	// (2) a replayed signal, delayed by at least one full packet time,
	//     always exceeds it.
	cal := calibrate(t, 10000, 10)
	thr := cal.Threshold()
	for seed := uint64(20); seed < 30; seed++ {
		probe := calibrate(t, 500, seed)
		if probe.XMax() > thr {
			t.Errorf("seed %d: benign RTT %v exceeds threshold %v", seed, probe.XMax(), thr)
		}
		// Minimum replay delay: one 16-byte packet.
		replayed := probe.XMin() + float64(phy.FrameAirTime(16))
		if replayed <= thr {
			t.Errorf("seed %d: replayed RTT %v under threshold %v", seed, replayed, thr)
		}
	}
}

func TestThresholdDetectsDelayOver4Point5Bits(t *testing.T) {
	// "we can detect any replayed signal if the delay introduced by this
	// replay is longer than the transmission time of ~4.5+1 bits":
	// any delay beyond spread+guard is always caught.
	cal := calibrate(t, 10000, 11)
	thr := cal.Threshold()
	alwaysCaught := cal.XMax() - cal.XMin() + GuardBand // delay that lifts even x_min past thr
	if bits := alwaysCaught / float64(phy.CyclesPerBit); bits > 6 {
		t.Errorf("guaranteed-detection delay = %.2f bits, want <= ~5.5", bits)
	}
	if cal.XMin()+alwaysCaught+1 <= thr {
		t.Error("internal inconsistency: computed delay does not clear threshold")
	}
	_ = thr
}

// calibrationFromSamples builds a Calibration from given RTTs, the
// fixture for tests that need a known sample set.
func calibrationFromSamples(samples []float64) Calibration {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return Calibration{samples: s}
}

func TestCalibrationFromSamples(t *testing.T) {
	c := calibrationFromSamples([]float64{5, 1, 3})
	if c.XMin() != 1 || c.XMax() != 5 || len(c.samples) != 3 {
		t.Errorf("from samples: min %v max %v len %d", c.XMin(), c.XMax(), len(c.samples))
	}
	if got := c.CDF(3); got < 0.66 || got > 0.67 {
		t.Errorf("CDF(3) = %v, want 2/3", got)
	}
}

func TestEmptyCalibration(t *testing.T) {
	var c Calibration
	if c.XMin() != 0 || c.XMax() != 0 || c.CDF(10) != 0 || c.Quantile(0.5) != 0 {
		t.Error("empty calibration accessors not zero")
	}
}

func TestCalibrateRTTWorkersDeterministic(t *testing.T) {
	// 1,200 trials span three batches; the merged sample set must be
	// identical whatever the worker count.
	base, err := CalibrateRTT(1200, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.samples) != 1200 {
		t.Fatalf("%d samples", len(base.samples))
	}
	for _, workers := range []int{0, 2, 8} {
		c, err := CalibrateRTT(1200, 5, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base.samples, c.samples) {
			t.Fatalf("workers=%d changed the calibration samples", workers)
		}
	}
}

func TestCalibrateRTTInvalidTrials(t *testing.T) {
	// Counts above the maximum would overflow the batch count or
	// allocate an unbounded sample buffer.
	for _, trials := range []int{0, -1, MaxCalibrationTrials + 1, math.MaxInt} {
		if _, err := CalibrateRTT(trials, 1, 1); err == nil {
			t.Errorf("CalibrateRTT(%d) did not error", trials)
		}
	}
}

func BenchmarkCalibrateRTT1k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := CalibrateRTT(1000, uint64(i), 0); err != nil {
			b.Fatal(err)
		}
	}
}
