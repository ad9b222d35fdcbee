package beaconsec_test

import (
	"math"
	"testing"

	"beaconsec"
)

func TestFacadeQuickScenario(t *testing.T) {
	cfg := beaconsec.PaperScenario()
	cfg.Deploy.N = 300
	cfg.Deploy.Nb = 33
	cfg.Deploy.Na = 3
	cfg.Deploy.Field = beaconsec.Square(550)
	cfg.Strategy = beaconsec.StrategyForP(0.5)
	cfg.Wormholes = nil
	cfg.Collude = false
	cfg.CalibrationTrials = 500
	res, err := beaconsec.RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectionRate < 0.5 {
		t.Errorf("detection rate %v at P=0.5", res.DetectionRate)
	}
	if res.FalsePositiveRate != 0 {
		t.Errorf("false positives %v without wormholes/collusion", res.FalsePositiveRate)
	}
}

func TestFacadeAnalysis(t *testing.T) {
	pop := beaconsec.PaperPopulation()
	if pop.N != 1000 || pop.Nb != 110 || pop.Na != 10 {
		t.Errorf("PaperPopulation = %+v", pop)
	}
	if pd := beaconsec.RevocationRate(0.3, 8, 2, 100, pop); pd <= 0 || pd > 1 {
		t.Errorf("RevocationRate = %v", pd)
	}
	maxN, argP := beaconsec.MaxAffected(8, 2, 100, pop)
	if maxN <= 0 || argP <= 0 || argP > 1 {
		t.Errorf("MaxAffected = %v at %v", maxN, argP)
	}
	if nf := beaconsec.FalsePositiveBound(10, 10, 10, 2, 0.9); math.Abs(nf-(0.1*10+110)/3) > 1e-9 {
		t.Errorf("FalsePositiveBound = %v", nf)
	}
}

func TestFacadeCalibration(t *testing.T) {
	cal := beaconsec.CalibrateRTT(500, 1)
	if cal.Len() != 500 {
		t.Fatalf("Len = %d", cal.Len())
	}
	if cal.Threshold() <= cal.XMax() {
		t.Error("Threshold not above XMax")
	}
}

func TestFacadeDetector(t *testing.T) {
	cal := beaconsec.CalibrateRTT(500, 2)
	cfg := beaconsec.DetectorConfig{
		MaxDistError: 10,
		MaxRTT:       cal.Threshold(),
		Range:        150,
	}
	benign := beaconsec.Observation{
		OwnLoc:       beaconsec.Point{X: 0, Y: 0},
		OwnKnown:     true,
		Claimed:      beaconsec.Point{X: 100, Y: 0},
		MeasuredDist: 104,
		RTT:          cal.XMin(),
	}
	if v := cfg.EvaluateDetector(benign); v != beaconsec.VerdictBenign {
		t.Errorf("benign exchange verdict = %v", v)
	}
	attack := benign
	attack.MeasuredDist = 140
	if v := cfg.EvaluateDetector(attack); v != beaconsec.VerdictMalicious {
		t.Errorf("attack verdict = %v", v)
	}
}

func TestFacadeLocalization(t *testing.T) {
	truth := beaconsec.Point{X: 40, Y: 35}
	beacons := []beaconsec.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 50, Y: 90}}
	refs := make([]beaconsec.Reference, len(beacons))
	for i, b := range beacons {
		refs[i] = beaconsec.Reference{Loc: b, Dist: truth.Dist(b)}
	}
	got, err := beaconsec.Multilaterate(refs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dist(truth) > 1e-6 {
		t.Errorf("Multilaterate = %v, want %v", got, truth)
	}
}
