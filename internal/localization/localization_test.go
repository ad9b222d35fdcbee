package localization

import (
	"errors"
	"math"
	"testing"

	"beaconsec/internal/geo"
	"beaconsec/internal/rng"
)

func refsFor(truth geo.Point, beacons []geo.Point, noise func(i int) float64) []Reference {
	refs := make([]Reference, len(beacons))
	for i, b := range beacons {
		refs[i] = Reference{Loc: b, Dist: truth.Dist(b) + noise(i)}
	}
	return refs
}

func noNoise(int) float64 { return 0 }

func triangle() []geo.Point {
	return []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 50, Y: 90}}
}

func TestMultilaterateExactRecovery(t *testing.T) {
	tests := []struct {
		name    string
		truth   geo.Point
		beacons []geo.Point
	}{
		{"inside triangle", geo.Point{X: 50, Y: 30}, triangle()},
		{"outside hull", geo.Point{X: 200, Y: 200}, triangle()},
		{"at a beacon", geo.Point{X: 0, Y: 0}, triangle()},
		{"four beacons", geo.Point{X: 42, Y: 17}, append(triangle(), geo.Point{X: 0, Y: 100})},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Multilaterate(refsFor(tt.truth, tt.beacons, noNoise))
			if err != nil {
				t.Fatal(err)
			}
			if d := got.Dist(tt.truth); d > 1e-6 {
				t.Errorf("estimate %v off truth %v by %v", got, tt.truth, d)
			}
		})
	}
}

func TestMultilaterateExactRecoveryProperty(t *testing.T) {
	src := rng.New(17)
	for trial := 0; trial < 500; trial++ {
		nb := 3 + src.Intn(8)
		beacons := make([]geo.Point, nb)
		for i := range beacons {
			beacons[i] = geo.Point{X: src.Uniform(0, 1000), Y: src.Uniform(0, 1000)}
		}
		truth := geo.Point{X: src.Uniform(0, 1000), Y: src.Uniform(0, 1000)}
		got, err := Multilaterate(refsFor(truth, beacons, noNoise))
		if errors.Is(err, ErrDegenerate) {
			continue // random collinear triple; legitimately rejected
		}
		if err != nil {
			t.Fatal(err)
		}
		if d := got.Dist(truth); d > 1e-3 {
			t.Fatalf("trial %d: estimate %v off truth %v by %v (beacons %v)",
				trial, got, truth, d, beacons)
		}
	}
}

func TestMultilaterateBoundedNoise(t *testing.T) {
	// With ranging error bounded by ±10 ft and well-spread beacons, the
	// estimate must stay within a small multiple of the error bound.
	src := rng.New(23)
	const maxErr = 10.0
	beacons := []geo.Point{{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 0, Y: 150}, {X: 150, Y: 150}, {X: 75, Y: 75}}
	worst := 0.0
	for trial := 0; trial < 300; trial++ {
		truth := geo.Point{X: src.Uniform(20, 130), Y: src.Uniform(20, 130)}
		refs := refsFor(truth, beacons, func(int) float64 { return src.Uniform(-maxErr, maxErr) })
		got, err := Multilaterate(refs)
		if err != nil {
			t.Fatal(err)
		}
		worst = math.Max(worst, got.Dist(truth))
	}
	if worst > 2.5*maxErr {
		t.Errorf("worst-case estimate error %v with ±%v ranging error", worst, maxErr)
	}
}

func TestMultilaterateMaliciousReferenceSkews(t *testing.T) {
	// The attack the paper defends against: one malicious reference with
	// a large distance bias must pull the estimate away from the truth —
	// otherwise detecting malicious beacons would be pointless.
	truth := geo.Point{X: 75, Y: 75}
	beacons := []geo.Point{{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 0, Y: 150}, {X: 150, Y: 150}}
	refs := refsFor(truth, beacons, noNoise)
	clean, err := Multilaterate(refs)
	if err != nil {
		t.Fatal(err)
	}
	refs[0].Dist += 80 // malicious enlargement
	skewed, err := Multilaterate(refs)
	if err != nil {
		t.Fatal(err)
	}
	if d := skewed.Dist(clean); d < 10 {
		t.Errorf("malicious reference moved estimate only %v ft", d)
	}
}

func TestMultilaterateTooFew(t *testing.T) {
	refs := refsFor(geo.Point{X: 1, Y: 1}, triangle()[:2], noNoise)
	if _, err := Multilaterate(refs); !errors.Is(err, ErrTooFew) {
		t.Errorf("2 refs: err = %v, want ErrTooFew", err)
	}
}

func TestMultilaterateCollinear(t *testing.T) {
	beacons := []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 100, Y: 0}}
	refs := refsFor(geo.Point{X: 30, Y: 40}, beacons, noNoise)
	if _, err := Multilaterate(refs); !errors.Is(err, ErrDegenerate) {
		t.Errorf("collinear beacons: err = %v, want ErrDegenerate", err)
	}
}

func BenchmarkMultilaterate(b *testing.B) {
	truth := geo.Point{X: 60, Y: 45}
	beacons := []geo.Point{{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 0, Y: 150}, {X: 150, Y: 150}, {X: 75, Y: 75}, {X: 30, Y: 120}}
	refs := refsFor(truth, beacons, func(i int) float64 { return float64(i%3) - 1 })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Multilaterate(refs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRobustMultilaterateDropsOutlier(t *testing.T) {
	truth := geo.Point{X: 75, Y: 75}
	beacons := []geo.Point{{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 0, Y: 150}, {X: 150, Y: 150}, {X: 75, Y: 0}}
	refs := refsFor(truth, beacons, noNoise)
	refs[2].Dist += 100 // one malicious enlargement
	est, kept, err := RobustMultilaterate(refs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 4 {
		t.Fatalf("kept %v, want the 4 honest references", kept)
	}
	for _, k := range kept {
		if k == 2 {
			t.Fatal("malicious reference index 2 survived trimming")
		}
	}
	if d := est.Dist(truth); d > 1 {
		t.Errorf("robust estimate off by %v", d)
	}
}

func TestRobustMultilaterateKeepsCleanSet(t *testing.T) {
	truth := geo.Point{X: 40, Y: 60}
	refs := refsFor(truth, triangle(), noNoise)
	est, kept, err := RobustMultilaterate(refs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 3 {
		t.Errorf("kept %v from a clean set", kept)
	}
	if est.Dist(truth) > 1e-6 {
		t.Errorf("clean robust estimate off by %v", est.Dist(truth))
	}
}

func TestRobustMultilaterateThreeRefsOneLiar(t *testing.T) {
	// With only three references nothing can be cross-checked reliably;
	// the solver still returns its best candidate rather than failing,
	// and reports which references agree with it.
	truth := geo.Point{X: 40, Y: 60}
	refs := refsFor(truth, triangle(), noNoise)
	refs[0].Dist += 500
	est, kept, err := RobustMultilaterate(refs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) > 3 {
		t.Errorf("kept %d of 3 references", len(kept))
	}
	_ = est // no accuracy guarantee is possible here
}

func TestRobustMultilaterateTooFew(t *testing.T) {
	refs := refsFor(geo.Point{X: 1, Y: 1}, triangle()[:2], noNoise)
	if _, _, err := RobustMultilaterate(refs, 10); !errors.Is(err, ErrTooFew) {
		t.Errorf("2 refs: err = %v, want ErrTooFew", err)
	}
}

func TestRobustMultilaterateInvalidResidual(t *testing.T) {
	refs := refsFor(geo.Point{X: 1, Y: 1}, triangle(), noNoise)
	if _, _, err := RobustMultilaterate(refs, 0); err == nil {
		t.Error("maxResidual 0 accepted")
	}
}

func TestRobustMultilaterateMajorityAttack(t *testing.T) {
	// With 2 liars out of 6 agreeing with each other, the honest
	// majority still wins.
	truth := geo.Point{X: 75, Y: 75}
	beacons := []geo.Point{{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 0, Y: 150}, {X: 150, Y: 150}, {X: 75, Y: 0}, {X: 0, Y: 75}}
	refs := refsFor(truth, beacons, noNoise)
	refs[0].Dist += 80
	refs[1].Dist += 80
	est, kept, err := RobustMultilaterate(refs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 4 {
		t.Errorf("kept %d, want 4 honest", len(kept))
	}
	if d := est.Dist(truth); d > 1 {
		t.Errorf("estimate off by %v under 2-liar attack", d)
	}
}
