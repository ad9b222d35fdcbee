package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"beaconsec/internal/geo"
	"beaconsec/internal/harness"
	"beaconsec/internal/phy"
	"beaconsec/internal/rng"
	"beaconsec/internal/sim"
)

// GuardBand is added to the observed no-attack maximum RTT to form the
// local-replay threshold. One bit-time of slack covers the gap between an
// empirical maximum over finitely many trials and the distribution's true
// upper bound; a replay costs at least one full packet time (dozens of
// byte-times), so the band cannot mask a real replay.
const GuardBand = float64(phy.CyclesPerBit)

// Calibration is the empirical no-attack RTT distribution (the paper's
// Figure 4), measured by exchanging request/reply pairs between two
// benign neighbor nodes and computing RTT = (t4-t1) - (t3-t2).
type Calibration struct {
	samples []float64 // sorted ascending
}

// calBatchSize is the number of exchanges each independent calibration
// network measures. The batch structure depends only on the trial count,
// never on the worker count, so CalibrateRTT is deterministic for any
// parallelism.
const calBatchSize = 500

// MaxCalibrationTrials bounds the exchanges one calibration measures,
// so the batch count cannot overflow and the sample buffer stays within
// memory. The paper measures 10,000.
const MaxCalibrationTrials = 1 << 24

// CalibrateRTT measures trials request/reply exchanges and returns the
// empirical distribution. The paper performs 10,000 trials on MICA2
// motes; this is the simulated equivalent. The exchanges are measured in
// fixed-size batches, each on its own dedicated two-node network seeded
// from the batch index, and the batches run concurrently on the trial
// harness with at most workers workers (0 means one per CPU). The merged
// distribution is identical for any worker count. A trial count outside
// [1, MaxCalibrationTrials] is an error.
func CalibrateRTT(trials int, seed uint64, workers int) (Calibration, error) {
	if trials <= 0 || trials > MaxCalibrationTrials {
		return Calibration{}, fmt.Errorf("core: calibration trials %d outside [1, %d]", trials, MaxCalibrationTrials)
	}
	batches := (trials + calBatchSize - 1) / calBatchSize
	labels := make([]string, batches)
	for i := range labels {
		labels[i] = fmt.Sprintf("batch=%d", i)
	}
	rows, err := harness.Sweep(context.Background(), harness.Spec[[]float64]{
		Label:   "rtt-calibration",
		Points:  labels,
		Trials:  1,
		Seed:    seed,
		Workers: workers,
		Run: func(_ context.Context, job harness.Job) ([]float64, error) {
			count := calBatchSize
			if job.Point == batches-1 {
				count = trials - calBatchSize*(batches-1)
			}
			return measureRTTBatch(count, calPairDist, job.Seed), nil
		},
	})
	if err != nil {
		return Calibration{}, err
	}
	samples := make([]float64, 0, trials)
	for _, row := range rows {
		samples = append(samples, row[0]...)
	}
	sort.Float64s(samples)
	return Calibration{samples: samples}, nil
}

// calPairDist is the distance in feet between the calibration pair.
const calPairDist = 100

// measureRTTBatch runs one batch of request/reply exchanges on a
// dedicated two-node network and returns the raw RTT samples.
func measureRTTBatch(trials int, pairDist float64, seed uint64) []float64 {
	src := rng.New(seed)
	sched := sim.New()
	medium := phy.NewMedium(sched, src.Split("medium"), phy.Config{Range: 150})
	a := medium.NewRadio(geo.Point{X: 0, Y: 0})
	b := medium.NewRadio(geo.Point{X: pairDist, Y: 0})

	samples := make([]float64, 0, trials)
	var t1, t2, t3 sim.Time
	frame := func() phy.Frame { return phy.Frame{Data: make([]byte, 16)} }

	b.SetHandler(func(rec phy.Reception) {
		t2 = rec.FirstByteSPDR
		// Modest randomized turnaround, standing in for MAC/processing
		// delay; it cancels out of the RTT by construction.
		delay := sim.Time(1000 + src.Intn(20000))
		sched.After(delay, func() {
			info := medium.Transmit(b, frame())
			t3 = info.FirstByteSPDR
		})
	})
	var kick func()
	a.SetHandler(func(rec phy.Reception) {
		t4 := rec.FirstByteSPDR
		samples = append(samples, float64(t4-t1)-float64(t3-t2))
		kick()
	})
	kick = func() {
		if len(samples) >= trials {
			return
		}
		// Leave air gaps between exchanges so they never overlap.
		sched.After(sim.Millis(1), func() {
			info := medium.Transmit(a, frame())
			t1 = info.FirstByteSPDR
		})
	}
	// Skip the first few thousand cycles so register-preload clamping at
	// time zero cannot bias the first sample.
	sched.At(sim.Millis(5), kick)
	sched.Run()
	return samples
}

// XMin returns the paper's x_min: the maximum x with F(x) = 0, i.e. the
// smallest observed RTT.
func (c Calibration) XMin() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	return c.samples[0]
}

// XMax returns the paper's x_max: the minimum x with F(x) = 1, i.e. the
// largest observed RTT.
func (c Calibration) XMax() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	return c.samples[len(c.samples)-1]
}

// CDF returns the empirical cumulative distribution F(x): the fraction of
// observed RTTs ≤ x.
func (c Calibration) CDF(x float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	return float64(sort.SearchFloat64s(c.samples, x+1e-12)) / float64(len(c.samples))
}

// Quantile returns the q-th empirical quantile, q in [0, 1].
func (c Calibration) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	if q <= 0 {
		return c.samples[0]
	}
	if q >= 1 {
		return c.samples[len(c.samples)-1]
	}
	i := int(q * float64(len(c.samples)))
	return c.samples[i]
}

// SpreadBits returns the observed RTT spread in bit-times; the paper
// reports ≈ 4.5 bits.
func (c Calibration) SpreadBits() float64 {
	return (c.XMax() - c.XMin()) / float64(phy.CyclesPerBit)
}

// Threshold returns the local-replay detection threshold: x_max plus the
// guard band.
func (c Calibration) Threshold() float64 { return c.XMax() + GuardBand }

// Stats summarizes the calibration for detectors that need distribution
// moments (NewDetector's rtt): sample mean and standard deviation plus the
// x_min / x_max / threshold headline values.
func (c Calibration) Stats() RTTStats {
	n := len(c.samples)
	if n == 0 {
		return RTTStats{}
	}
	var sum float64
	for _, x := range c.samples {
		sum += x
	}
	mean := sum / float64(n)
	var ss float64
	for _, x := range c.samples {
		d := x - mean
		ss += d * d
	}
	return RTTStats{
		Mean:      mean,
		Std:       math.Sqrt(ss / float64(n)),
		Min:       c.XMin(),
		Max:       c.XMax(),
		Threshold: c.Threshold(),
	}
}
