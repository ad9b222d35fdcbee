package experiment

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// The tests here check the claims EXPERIMENTS.md's reproduction table
// makes for the simulated figures against the committed results/*.csv.
// CI's "Committed results reproduce" step pins those files to the code
// at seed 1, so a change that breaks a claim must either regenerate a
// CSV that fails here or fail that step.

// point is one (x, y) row of a committed figure CSV.
type point struct{ x, y float64 }

// readSeries reads results/<id>.csv into its series, rows in file order.
func readSeries(t *testing.T, id string) map[string][]point {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "results", id+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s.csv: %v", id, err)
	}
	if len(rows) < 2 || len(rows[0]) != 3 || rows[0][0] != "series" {
		t.Fatalf("%s.csv: want a series,x,y header and rows, got %d rows", id, len(rows))
	}
	series := make(map[string][]point)
	for _, r := range rows[1:] {
		x, xerr := strconv.ParseFloat(r[1], 64)
		y, yerr := strconv.ParseFloat(r[2], 64)
		if xerr != nil || yerr != nil {
			t.Fatalf("%s.csv: bad row %q", id, r)
		}
		series[r[0]] = append(series[r[0]], point{x, y})
	}
	return series
}

// argmax returns the x of the series' largest y (the first on ties).
func argmax(pts []point) float64 {
	best := pts[0]
	for _, p := range pts[1:] {
		if p.y > best.y {
			best = p
		}
	}
	return best.x
}

// TestFig13Claims: once P ≥ 0.3 every malicious beacon is revoked before
// the request phase, so the simulated N′ is 0 there, and the simulated N′
// peaks at the same P as the closed form.
func TestFig13Claims(t *testing.T) {
	s := readSeries(t, "fig13")
	sim, theory := s["simulation"], s["theory"]
	if len(sim) == 0 || len(theory) == 0 {
		t.Fatalf("fig13.csv lacks a series: %d simulation, %d theory rows", len(sim), len(theory))
	}
	high := 0
	for _, p := range sim {
		if p.x >= 0.3 {
			high++
			if p.y != 0 {
				t.Errorf("simulated N′ = %v at P = %v, want 0 for P ≥ 0.3", p.y, p.x)
			}
		}
	}
	if high == 0 {
		t.Error("fig13.csv has no simulated point at P ≥ 0.3")
	}
	if got, want := argmax(sim), argmax(theory); got != want {
		t.Errorf("simulated N′ peaks at P = %v, theory at P = %v", got, want)
	}
}

// firstFPRAt returns the smallest false-positive rate at which the ROC
// series reaches detection det, and whether it does.
func firstFPRAt(pts []point, det float64) (float64, bool) {
	fpr, ok := 0.0, false
	for _, p := range pts {
		if p.y >= det && (!ok || p.x < fpr) {
			fpr, ok = p.x, true
		}
	}
	return fpr, ok
}

// TestFig14Claims: with five colluders and τ′ = 3 the defense detects at
// least 90% of malicious beacons at a false-positive rate of at most 5%,
// and doubling the colluders costs at least 1.5× that false-positive rate
// for the same detection.
func TestFig14Claims(t *testing.T) {
	s := readSeries(t, "fig14")
	few, ok := firstFPRAt(s["Na=5,tau'=3"], 0.9)
	if !ok || few > 0.05 {
		t.Errorf("Na=5, τ′=3 reaches detection 0.9 at FPR %v (reached: %v), want at most 0.05", few, ok)
	}
	many, ok := firstFPRAt(s["Na=10,tau'=3"], 0.9)
	if !ok || many < 1.5*few {
		t.Errorf("Na=10, τ′=3 reaches detection 0.9 at FPR %v (reached: %v), want at least 1.5 × %v", many, ok, few)
	}
}
