package scenario

import (
	"cmp"
	"testing"

	"beaconsec/internal/core"
)

// TestValidateDetector: a config naming any detector but the three must
// fail validation before any simulation runs.
func TestValidateDetector(t *testing.T) {
	cfg := smallConfig(0.3, 1)
	for _, name := range []string{"nope", "Paper", "ml{bias=20}"} {
		cfg.Detector = name
		if err := cfg.Validate(); err == nil {
			t.Errorf("detector %q accepted", name)
		}
	}
	for _, name := range append(core.DetectorNames(), "") {
		cfg.Detector = name
		if err := cfg.Validate(); err != nil {
			t.Errorf("detector %q: %v", name, err)
		}
	}
	cfg.Detector = ""
	cfg.AttackBias = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative attack bias accepted")
	}
}

// TestRunThreadsDetectorIdentity: the detector's name ("paper" for the
// empty one) must surface in the result and key the per-detector verdict
// counters in the metrics, for the default and the rivals alike.
func TestRunThreadsDetectorIdentity(t *testing.T) {
	for _, name := range []string{"", "ml", "mahalanobis"} {
		cfg := smallConfig(0.3, 1)
		cfg.Detector = name
		res := run(t, cfg)
		want := cmp.Or(name, core.DefaultDetectorName)
		if res.Detector != want {
			t.Errorf("Result.Detector = %q, want %q", res.Detector, want)
		}
		fm, ok := res.Metrics.Detectors[want]
		if !ok {
			t.Fatalf("%s: metrics missing per-detector counters (have %v)",
				want, res.Metrics.Detectors)
		}
		if fm != res.Metrics.Filters {
			t.Errorf("%s: per-detector counters %+v diverge from filter totals %+v",
				want, fm, res.Metrics.Filters)
		}
	}
}

// TestDefaultDetectorByteIdentical: naming the paper detector explicitly
// must reproduce the implicit default run exactly — the refactor's
// byte-identity contract at the scenario level.
func TestDefaultDetectorByteIdentical(t *testing.T) {
	implicit := run(t, smallConfig(0.3, 7))
	cfg := smallConfig(0.3, 7)
	cfg.Detector = core.DefaultDetectorName
	explicit := run(t, cfg)
	if implicit.DetectionRate != explicit.DetectionRate ||
		implicit.RevokedMalicious != explicit.RevokedMalicious ||
		implicit.RevokedBenign != explicit.RevokedBenign ||
		implicit.TrueAlerts != explicit.TrueAlerts ||
		implicit.Localized != explicit.Localized ||
		implicit.LocErrMean != explicit.LocErrMean {
		t.Errorf("explicit paper detector diverged from default:\n%+v\nvs\n%+v",
			implicit, explicit)
	}
}

// TestSubtleAttackSeparatesDetectors: a 1.5ε enlargement sits inside the
// paper's per-exchange always-catch region but outside the Mahalanobis
// ellipse often enough to matter; with a generous exchange budget the
// paper pipeline must catch at least as many attackers as under the
// blatant default, and the mahalanobis run must record strictly fewer
// malicious verdicts per exchange than the paper run on identical
// deployments (catch 0.437 vs 0.75 per flagged exchange).
func TestSubtleAttackSeparatesDetectors(t *testing.T) {
	mal := func(name string) uint64 {
		cfg := smallConfig(0.5, 3)
		cfg.AttackBias = 15 // 1.5 ε_max
		cfg.Detector = name
		res := run(t, cfg)
		return res.Metrics.Filters.DetectorMalicious
	}
	paper := mal("")
	maha := mal("mahalanobis")
	if paper == 0 {
		t.Fatal("paper pipeline flagged no exchanges under a 1.5-epsilon attack")
	}
	if maha >= paper {
		t.Errorf("mahalanobis flagged %d exchanges vs paper's %d; expected fewer (catch 0.437 vs 0.75)",
			maha, paper)
	}
}

// TestRTTStatsPinSkipsCalibration: with both the threshold and the
// calibration statistics pinned (as the bake-off pins them), a run with
// a moments-hungry detector must not calibrate at all. Unpinned, the
// threshold and the statistics share one calibration.
func TestRTTStatsPinSkipsCalibration(t *testing.T) {
	calibrations := 0
	defer func(f func(int, uint64) core.Calibration) { calibrateRTT = f }(calibrateRTT)
	calibrateRTT = func(trials int, seed uint64) core.Calibration {
		calibrations++
		return core.CalibrateRTT(trials, seed)
	}
	cfg := smallConfig(0.3, 1)
	cfg.Detector = "mahalanobis"
	pinned := core.RTTStats{Mean: 50000, Std: 250, Min: 49200, Max: 50870, Threshold: 50900}
	cfg.RTTStats = &pinned
	cfg.RTTThreshold = pinned.Threshold
	res := run(t, cfg)
	if res.RTTThreshold != pinned.Threshold {
		t.Errorf("RTT threshold %v, want pinned %v", res.RTTThreshold, pinned.Threshold)
	}
	if calibrations != 0 {
		t.Errorf("pinned run calibrated %d times, want 0", calibrations)
	}
	cfg.RTTStats, cfg.RTTThreshold = nil, 0
	run(t, cfg)
	if calibrations != 1 {
		t.Errorf("unpinned run calibrated %d times, want 1", calibrations)
	}
}
