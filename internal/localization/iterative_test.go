package localization

import (
	"testing"

	"beaconsec/internal/geo"
	"beaconsec/internal/rng"
)

// localizedCount returns how many non-seed nodes localized.
func localizedCount(r IterativeResult) int {
	n := 0
	for i, ok := range r.Localized {
		if ok && r.Tier[i] > 0 {
			n++
		}
	}
	return n
}

// chainTopology builds a field where only the left strip has seed
// beacons, so the right side must localize through promoted tiers.
func chainTopology(seed uint64, n int) (truth []geo.Point, isBeacon, liars []bool) {
	src := rng.New(seed)
	truth = make([]geo.Point, n)
	isBeacon = make([]bool, n)
	liars = make([]bool, n)
	for i := range truth {
		truth[i] = geo.Point{X: src.Uniform(0, 800), Y: src.Uniform(0, 300)}
		// Seed beacons in the leftmost strip only.
		if truth[i].X < 150 && i%2 == 0 {
			isBeacon[i] = true
		}
	}
	return truth, isBeacon, liars
}

func defaultIterCfg() IterativeConfig {
	return IterativeConfig{Range: 160, MaxDistError: 5}
}

func TestIterativeReachesBeyondBeaconCoverage(t *testing.T) {
	truth, isBeacon, liars := chainTopology(1, 150)
	res := IterativeLocalize(truth, isBeacon, liars, geo.Point{}, defaultIterCfg(), rng.New(2))
	if localizedCount(res) == 0 {
		t.Fatal("no node localized beyond the seeds")
	}
	// Some node far from all seed beacons (X > 400) must have localized
	// through intermediate tiers.
	farLocalized := 0
	for i, ok := range res.Localized {
		if ok && res.Tier[i] > 1 && truth[i].X > 400 {
			farLocalized++
		}
	}
	if farLocalized == 0 {
		t.Error("no far node localized through promotion (multi-tier broken)")
	}
}

func TestIterativeErrorAccumulatesWithTier(t *testing.T) {
	// The paper's §2.3 observation: "localization error may accumulate
	// when more and more non-beacon nodes turn into beacon nodes".
	truth, isBeacon, liars := chainTopology(3, 200)
	res := IterativeLocalize(truth, isBeacon, liars, geo.Point{}, defaultIterCfg(), rng.New(4))
	errs := res.MeanErrorByTier(truth)
	if len(errs) < 3 {
		t.Skipf("topology produced only %d tiers", len(errs))
	}
	if errs[0] != 0 {
		t.Errorf("tier-0 error %v, want 0", errs[0])
	}
	last := errs[len(errs)-1]
	if last <= errs[1] {
		t.Errorf("no accumulation: tier-1 %v vs last tier %v", errs[1], last)
	}
}

func TestIterativeTierZeroOnlyBeacons(t *testing.T) {
	truth, isBeacon, liars := chainTopology(5, 100)
	res := IterativeLocalize(truth, isBeacon, liars, geo.Point{}, defaultIterCfg(), rng.New(6))
	for i := range truth {
		if isBeacon[i] {
			if res.Tier[i] != 0 || res.Estimate[i] != truth[i] {
				t.Fatalf("seed beacon %d: tier %d estimate %v", i, res.Tier[i], res.Estimate[i])
			}
		} else if res.Tier[i] == 0 {
			t.Fatalf("non-beacon %d assigned tier 0", i)
		}
	}
}

func TestIterativeDetectorDiscardsLyingPromotedNodes(t *testing.T) {
	truth, isBeacon, liars := chainTopology(7, 200)
	// A fraction of non-beacon nodes lie about their position once
	// promoted.
	src := rng.New(8)
	for i := range liars {
		if !isBeacon[i] && src.Bool(0.15) {
			liars[i] = true
		}
	}
	lie := geo.Point{X: 120, Y: -90}

	cfgOff := defaultIterCfg()
	resOff := IterativeLocalize(truth, isBeacon, liars, lie, cfgOff, rng.New(9))

	cfgOn := cfgOff
	cfgOn.DetectMalicious = true
	resOn := IterativeLocalize(truth, isBeacon, liars, lie, cfgOn, rng.New(9))

	if resOn.Discarded == 0 {
		t.Fatal("detector discarded nothing despite lying references")
	}
	meanAll := func(r IterativeResult) float64 {
		var sum float64
		n := 0
		for i, ok := range r.Localized {
			if ok && r.Tier[i] > 0 {
				sum += r.Estimate[i].Dist(truth[i])
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	errOff, errOn := meanAll(resOff), meanAll(resOn)
	if errOn >= errOff {
		t.Errorf("consistency filtering did not reduce error: %v (on) vs %v (off)", errOn, errOff)
	}
}

func TestIterativeNoBeaconsLocalizesNothing(t *testing.T) {
	truth := []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}, {X: 10, Y: 10}}
	res := IterativeLocalize(truth, make([]bool, 4), make([]bool, 4), geo.Point{},
		defaultIterCfg(), rng.New(1))
	if localizedCount(res) != 0 {
		t.Errorf("localized %d nodes with no seeds", localizedCount(res))
	}
}

func TestIterativeMismatchedLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	IterativeLocalize(make([]geo.Point, 3), make([]bool, 2), make([]bool, 3),
		geo.Point{}, defaultIterCfg(), rng.New(1))
}

func TestIterativeDeterministic(t *testing.T) {
	truth, isBeacon, liars := chainTopology(11, 120)
	a := IterativeLocalize(truth, isBeacon, liars, geo.Point{}, defaultIterCfg(), rng.New(12))
	b := IterativeLocalize(truth, isBeacon, liars, geo.Point{}, defaultIterCfg(), rng.New(12))
	for i := range a.Estimate {
		if a.Estimate[i] != b.Estimate[i] || a.Tier[i] != b.Tier[i] {
			t.Fatalf("node %d diverged between identical runs", i)
		}
	}
}
