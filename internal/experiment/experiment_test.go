package experiment

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"beaconsec/internal/harness"
)

func quick() Options { return Options{Quick: true, Seed: 1} }

// mustRun executes a runner and fails the test on error.
func mustRun(t *testing.T, f func(Options) (Result, error), o Options) Result {
	t.Helper()
	r, err := f(o)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func checkResult(t *testing.T, r Result) {
	t.Helper()
	if r.ID == "" || r.Title == "" {
		t.Errorf("result missing identity: %+v", r)
	}
	if len(r.Series) == 0 {
		t.Fatalf("%s: no series", r.ID)
	}
	for _, s := range r.Series {
		if s.Label == "" {
			t.Errorf("%s: unlabelled series", r.ID)
		}
		if len(s.X) == 0 || len(s.X) != len(s.Y) {
			t.Errorf("%s/%s: series lengths x=%d y=%d", r.ID, s.Label, len(s.X), len(s.Y))
		}
	}
	if out := r.Plot().Render(60, 16); out == "" {
		t.Errorf("%s: empty render", r.ID)
	}
	if csv := r.Plot().CSV(); !strings.HasPrefix(csv, "series,x,y\n") {
		t.Errorf("%s: bad CSV header", r.ID)
	}
}

func TestAllRunnersProduceWellFormedResults(t *testing.T) {
	for _, runner := range All() {
		runner := runner
		t.Run(runner.ID, func(t *testing.T) {
			r := mustRun(t, runner.Run, quick())
			if r.ID != runner.ID {
				t.Errorf("runner %s returned result ID %s", runner.ID, r.ID)
			}
			checkResult(t, r)
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig05"); !ok {
		t.Error("fig05 not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown ID found")
	}
}

func TestFig4Headlines(t *testing.T) {
	r := mustRun(t, Fig4, quick())
	if len(r.Notes) < 2 {
		t.Fatalf("fig4 notes: %v", r.Notes)
	}
	// The CDF must start at ~0 and end at 1.
	s := r.Series[0]
	if s.Y[0] > 0.05 {
		t.Errorf("CDF starts at %v", s.Y[0])
	}
	if s.Y[len(s.Y)-1] != 1 {
		t.Errorf("CDF ends at %v", s.Y[len(s.Y)-1])
	}
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] < s.Y[i-1] {
			t.Fatalf("CDF not monotone at %d", i)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	r := mustRun(t, Fig5, quick())
	if len(r.Series) != 4 {
		t.Fatalf("fig5 has %d series", len(r.Series))
	}
	// m=8 dominates m=1 pointwise.
	m1, m8 := r.Series[0], r.Series[3]
	for i := range m1.Y {
		if m8.Y[i] < m1.Y[i]-1e-12 {
			t.Fatalf("m=8 below m=1 at index %d", i)
		}
	}
}

func TestFig6aShape(t *testing.T) {
	r := mustRun(t, Fig6a, quick())
	// tau'=1 dominates tau'=4 (easier revocation).
	t1, t4 := r.Series[0], r.Series[3]
	for i := range t1.Y {
		if t1.Y[i] < t4.Y[i]-1e-12 {
			t.Fatalf("tau'=1 below tau'=4 at index %d", i)
		}
	}
}

func TestFig7Monotone(t *testing.T) {
	r := mustRun(t, Fig7, quick())
	for _, s := range r.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1]-1e-9 {
				t.Fatalf("%s not monotone in Nc at %d", s.Label, i)
			}
		}
	}
}

func TestFig9InteriorPeak(t *testing.T) {
	r := mustRun(t, Fig9, Options{Seed: 1}) // full grid: quick is too coarse for peak detection
	s := r.Series[0]                        // m=8, tau'=2
	peak, peakIdx := 0.0, 0
	for i, v := range s.Y {
		if v > peak {
			peak, peakIdx = v, i
		}
	}
	if peakIdx == 0 || peakIdx == len(s.Y)-1 {
		t.Errorf("fig9 peak at boundary index %d", peakIdx)
	}
	if last := s.Y[len(s.Y)-1]; last >= peak {
		t.Errorf("fig9 no post-peak decline: peak %v, last %v", peak, last)
	}
}

func TestFig10Decreasing(t *testing.T) {
	r := mustRun(t, Fig10, quick())
	for _, s := range r.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] > s.Y[i-1]+1e-12 {
				t.Fatalf("%s: P_o increasing at tau=%d", s.Label, i)
			}
		}
	}
}

func TestFig11Counts(t *testing.T) {
	r := mustRun(t, Fig11, quick())
	if len(r.Series) != 2 {
		t.Fatalf("fig11 series: %d", len(r.Series))
	}
	if got := len(r.Series[0].X); got != 100 {
		t.Errorf("benign beacons plotted: %d", got)
	}
	if got := len(r.Series[1].X); got != 10 {
		t.Errorf("malicious beacons plotted: %d", got)
	}
	if !r.Series[0].Scatter {
		t.Error("fig11 series not marked scatter")
	}
}

func TestFig12SimTracksTheory(t *testing.T) {
	r := mustRun(t, Fig12, quick())
	sim, th := r.Series[0], r.Series[1]
	for i := range sim.Y {
		if d := sim.Y[i] - th.Y[i]; d > 0.45 || d < -0.45 {
			t.Errorf("fig12: sim %v vs theory %v at P=%v", sim.Y[i], th.Y[i], sim.X[i])
		}
	}
}

func TestFig14ROCRange(t *testing.T) {
	r := mustRun(t, Fig14, quick())
	for _, s := range r.Series {
		for i := range s.X {
			if s.X[i] < 0 || s.X[i] > 1 || s.Y[i] < 0 || s.Y[i] > 1 {
				t.Errorf("%s: ROC point (%v, %v) out of range", s.Label, s.X[i], s.Y[i])
			}
		}
	}
}

func TestExtraLocalizationDefenseHelps(t *testing.T) {
	r := mustRun(t, ExtraLocalization, quick())
	defended, undefended := r.Series[0], r.Series[1]
	last := len(defended.Y) - 1
	if defended.Y[last] >= undefended.Y[last] {
		t.Errorf("defense did not reduce localization error: %v vs %v",
			defended.Y[last], undefended.Y[last])
	}
}

func TestExtraAblationOrdering(t *testing.T) {
	r := mustRun(t, ExtraAblation, quick())
	full := r.Series[0].Y[0]
	noRTT := r.Series[1].Y[0]
	if noRTT < full {
		t.Errorf("disabling the RTT filter reduced false alerts: %v -> %v", full, noRTT)
	}
}

func TestExtraPromotionShape(t *testing.T) {
	r := mustRun(t, ExtraPromotion, Options{Seed: 1}) // full size: quick topologies can be too sparse
	if len(r.Series) != 3 {
		t.Fatalf("promotion variants: %d", len(r.Series))
	}
	// Compare each variant's mean error over promoted tiers (tier 0 is
	// exact for everyone).
	meanOver := func(ys []float64) float64 {
		if len(ys) < 2 {
			return 0
		}
		sum := 0.0
		for _, v := range ys[1:] {
			sum += v
		}
		return sum / float64(len(ys)-1)
	}
	honest := meanOver(r.Series[0].Y)
	liars := meanOver(r.Series[1].Y)
	detected := meanOver(r.Series[2].Y)
	if honest <= 0 {
		t.Fatal("no promoted tiers formed")
	}
	if liars <= honest {
		t.Errorf("liars did not raise mean error: %v vs honest %v", liars, honest)
	}
	if detected >= liars {
		t.Errorf("detector did not reduce mean error: %v vs %v", detected, liars)
	}
	// The paper's §2.3 accumulation claim: later honest tiers are worse
	// than tier 1.
	hy := r.Series[0].Y
	if len(hy) >= 3 && hy[len(hy)-1] <= hy[1] {
		t.Errorf("no accumulation across honest tiers: %v", hy)
	}
}

func TestExtraDistributedShape(t *testing.T) {
	r := mustRun(t, ExtraDistributed, quick())
	if len(r.Series) != 2 {
		t.Fatalf("series: %d", len(r.Series))
	}
	central, local := r.Series[0], r.Series[1]
	lastC := central.Y[len(central.Y)-1]
	lastL := local.Y[len(local.Y)-1]
	if lastC < 0.5 {
		t.Errorf("centralized detection at P=1: %v", lastC)
	}
	if lastL <= 0 {
		t.Errorf("distributed coverage at P=1: %v", lastL)
	}
	if len(r.Notes) == 0 {
		t.Error("no collusion-cost note")
	}
}

func TestExtraRoutingDefenseHelps(t *testing.T) {
	// Full fidelity: the quick-mode network is small and dense enough
	// that greedy routing shrugs off corrupted positions (2-3 hop
	// paths); the effect needs paper-scale path lengths.
	if testing.Short() {
		t.Skip("paper-scale routing experiment in -short mode")
	}
	r := mustRun(t, ExtraRouting, Options{Seed: 1})
	defended, undefended := r.Series[0], r.Series[1]
	last := len(defended.Y) - 1
	if defended.Y[last] <= undefended.Y[last] {
		t.Errorf("defense did not improve delivery: %v vs %v",
			defended.Y[last], undefended.Y[last])
	}
	if defended.Y[last] < 0.6 {
		t.Errorf("defended delivery rate %v suspiciously low", defended.Y[last])
	}
}

// stripTiming zeroes the wall-clock half of a result's metrics. Wall
// time is non-deterministic by nature; everything else must be
// byte-identical across worker counts.
func stripTiming(r *Result) {
	if r.Metrics != nil {
		r.Metrics.Timing = harness.Timing{}
	}
}

// TestFig12DeterministicAcrossWorkerCounts proves the parallel refactor
// preserves reproducibility: the same seed must give byte-identical
// figure output whether the sweep runs on one worker or eight.
func TestFig12DeterministicAcrossWorkerCounts(t *testing.T) {
	runAt := func(workers int) Result {
		t.Helper()
		r := mustRun(t, Fig12, Options{Quick: true, Seed: 1, Workers: workers})
		stripTiming(&r)
		return r
	}
	base := runAt(1)
	for _, workers := range []int{0, 8} {
		got := runAt(workers)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("Workers=%d changed the result:\nWorkers=1: %+v\nWorkers=%d: %+v",
				workers, base, workers, got)
		}
		if base.Plot().CSV() != got.Plot().CSV() {
			t.Fatalf("Workers=%d changed the CSV rendering", workers)
		}
	}
}

// TestFig12MetricsIdenticalAcrossWorkerCounts pins the aggregation order:
// the deterministic half of the metrics must serialize to identical JSON
// bytes for any worker count (counters merge in grid order, not
// completion order).
func TestFig12MetricsIdenticalAcrossWorkerCounts(t *testing.T) {
	jsonAt := func(workers int) string {
		t.Helper()
		r := mustRun(t, Fig12, Options{Quick: true, Seed: 1, Workers: workers})
		if r.Metrics == nil {
			t.Fatal("fig12 produced no metrics")
		}
		b, err := json.Marshal(r.Metrics.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	base := jsonAt(1)
	for _, workers := range []int{2, 8} {
		if got := jsonAt(workers); got != base {
			t.Fatalf("Workers=%d changed the metrics JSON:\n%s\nvs\n%s", workers, base, got)
		}
	}
}

// TestFig12MetricsContent sanity-checks the aggregate counters: a quick
// fig12 sweep runs 2 points x 1 trial, so Runs = 2, and every layer must
// have seen traffic.
func TestFig12MetricsContent(t *testing.T) {
	r := mustRun(t, Fig12, quick())
	if r.Metrics == nil {
		t.Fatal("fig12 produced no metrics")
	}
	m := r.Metrics.Scenario
	if m.Runs != 2 {
		t.Errorf("Runs = %d, want 2", m.Runs)
	}
	if m.Sim.Events == 0 || m.Sim.Scheduled < m.Sim.Events {
		t.Errorf("implausible scheduler counters: %+v", m.Sim)
	}
	if m.Radio.Transmissions == 0 || m.Radio.BytesOnAir == 0 {
		t.Errorf("no radio traffic: %+v", m.Radio)
	}
	if m.Link.Sent == 0 || m.Link.Delivered == 0 {
		t.Errorf("no link traffic: %+v", m.Link)
	}
	if m.Probes.Probes == 0 || m.Probes.Replies == 0 {
		t.Errorf("no probe exchanges: %+v", m.Probes)
	}
	if m.Filters.SensorAccepted == 0 {
		t.Errorf("sensors accepted nothing: %+v", m.Filters)
	}
	if m.Revocation.Base.Handled == 0 {
		t.Errorf("the base station handled no alerts: %+v", m.Revocation)
	}
	wantPhases := []string{"announce", "collude", "detect", "localize", "drain"}
	if len(m.Phases) != len(wantPhases) {
		t.Fatalf("phases: %+v", m.Phases)
	}
	var phaseEvents uint64
	for i, ph := range m.Phases {
		if ph.Name != wantPhases[i] {
			t.Errorf("phase %d = %q, want %q", i, ph.Name, wantPhases[i])
		}
		phaseEvents += ph.Events
	}
	if phaseEvents != m.Sim.Events {
		t.Errorf("phase events sum %d != scheduler events %d", phaseEvents, m.Sim.Events)
	}
	tm := r.Metrics.Timing
	if tm.Jobs != 2 || tm.WallSeconds <= 0 || tm.JobsPerSec <= 0 {
		t.Errorf("implausible timing: %+v", tm)
	}
}

// TestResultJSONRoundTrip proves the machine-readable export is lossless:
// a figure result (series, notes, metrics including histograms and phase
// spans) survives encoding/json unchanged.
func TestResultJSONRoundTrip(t *testing.T) {
	r := mustRun(t, Fig12, quick())
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Errorf("JSON round trip changed the result:\n%+v\nvs\n%+v", r, back)
	}
}

// TestProgressReportsAllJobs checks the Options.Progress callback sees
// every job of a simulation-backed sweep and ends at done == total.
func TestProgressReportsAllJobs(t *testing.T) {
	var mu sync.Mutex
	var calls, last, total int
	o := Options{Quick: true, Seed: 1, Workers: 2}
	o.Progress = func(done, tot int, elapsed time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		last, total = done, tot
		if elapsed < 0 {
			t.Errorf("negative elapsed %v", elapsed)
		}
	}
	mustRun(t, Fig12, o)
	if calls == 0 {
		t.Fatal("progress callback never invoked")
	}
	if last != total || total == 0 {
		t.Errorf("final progress %d/%d, want done == total > 0", last, total)
	}
}
