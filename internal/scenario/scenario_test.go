package scenario

import (
	"math"
	"testing"

	"beaconsec/internal/analysis"
	"beaconsec/internal/core"
	"beaconsec/internal/geo"
	"beaconsec/internal/revoke"
)

// smallConfig is a ~3x-reduced network that keeps runs fast while
// preserving the paper's densities (10% benign beacons, ~same neighbor
// counts).
func smallConfig(p float64, seed uint64) Config {
	cfg := Paper()
	cfg.Deploy.N = 300
	cfg.Deploy.Nb = 33
	cfg.Deploy.Na = 3
	cfg.Deploy.Field = geo.Square(550) // keeps ~node density of the paper
	cfg.Deploy.Seed = seed
	cfg.Strategy = analysis.StrategyForP(p)
	cfg.Wormholes = nil
	cfg.Collude = false
	cfg.CalibrationTrials = 500
	cfg.Seed = seed
	return cfg
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValidate(t *testing.T) {
	if err := Paper().Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Deploy.N = 0 },
		func(c *Config) { c.Revoke.ReportCap = -1 },
		func(c *Config) { c.Strategy.PN = 2 },
		func(c *Config) { c.WormholeRate = 1.5 },
		func(c *Config) { c.WormholeRate = math.NaN() },
		func(c *Config) { c.AttackBias = math.NaN() },
		func(c *Config) { c.RTTStats = &core.RTTStats{Threshold: math.NaN()} },
		func(c *Config) { c.RTTStats = &core.RTTStats{Threshold: -1} },
		func(c *Config) { c.RTTStats = &core.RTTStats{Threshold: math.Inf(1)} },
		func(c *Config) { c.RTTStats = &core.RTTStats{} },
		func(c *Config) { c.CalibrationTrials = -1 },
		func(c *Config) { c.CalibrationTrials = core.MaxCalibrationTrials + 1 },
	}
	for i, mut := range bad {
		cfg := Paper()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		// Run validates first: a bad config is an error, not a panic.
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d ran", i)
		}
	}
}

func TestCleanNetworkNoRevocations(t *testing.T) {
	cfg := smallConfig(0.3, 1)
	cfg.Deploy.Na = 0
	res := run(t, cfg)
	if res.RevokedBenign != 0 || res.RevokedMalicious != 0 {
		t.Errorf("clean network revoked %d benign, %d malicious",
			res.RevokedBenign, res.RevokedMalicious)
	}
	if res.TrueAlerts != 0 || res.BenignAlerts != 0 {
		t.Errorf("clean network produced alerts: true=%d benign=%d",
			res.TrueAlerts, res.BenignAlerts)
	}
	if res.Localized == 0 {
		t.Error("no sensors localized in a clean network")
	}
	// Mean localization error should be within a small multiple of the
	// ranging error.
	if res.LocErrMean > 3*MaxDistError {
		t.Errorf("clean-network mean localization error %v ft", res.LocErrMean)
	}
}

func TestAggressiveAttackerRevoked(t *testing.T) {
	cfg := smallConfig(1.0, 2)
	res := run(t, cfg)
	if res.DetectionRate != 1 {
		t.Errorf("always-attacking nodes: detection rate %v, want 1", res.DetectionRate)
	}
	if res.RevokedBenign != 0 {
		t.Errorf("revoked %d benign nodes without wormholes or collusion", res.RevokedBenign)
	}
	if res.AffectedPerMalicious != 0 {
		t.Errorf("affected %v sensors per revoked-before-request malicious node",
			res.AffectedPerMalicious)
	}
}

func TestStealthyAttackerSurvivesButHarmless(t *testing.T) {
	cfg := smallConfig(0, 3) // p_n = 1: never attacks
	res := run(t, cfg)
	if res.RevokedMalicious != 0 {
		t.Errorf("never-attacking nodes revoked: %d", res.RevokedMalicious)
	}
	if res.AffectedPerMalicious != 0 {
		t.Errorf("never-attacking nodes affected %v sensors", res.AffectedPerMalicious)
	}
}

func TestDetectionRateTracksTheory(t *testing.T) {
	// The Figure 12 property at reduced scale: simulated detection rate
	// within a loose band of the closed form at the measured N_c.
	for _, p := range []float64{0.1, 0.4} {
		var det, nc float64
		const trials = 3
		for s := uint64(0); s < trials; s++ {
			res := run(t, smallConfig(p, 10+s))
			det += res.DetectionRate
			nc += res.AvgNc
		}
		det /= trials
		nc /= trials
		pop := analysis.Population{N: 300, Nb: 33, Na: 3}
		want := analysis.RevocationRate(p, 8, 2, int(nc), pop)
		if math.Abs(det-want) > 0.3 {
			t.Errorf("P=%v: detection %v vs theory %v (Nc=%v)", p, det, want, nc)
		}
	}
}

func TestColludersRevokeBoundedBenign(t *testing.T) {
	cfg := smallConfig(0.2, 4)
	cfg.Collude = true
	res := run(t, cfg)
	bound := cfg.Deploy.Na * (cfg.Revoke.ReportCap + 1) / (cfg.Revoke.AlertThreshold + 1)
	if res.RevokedBenign == 0 {
		t.Error("colluders revoked nobody (coordination broken)")
	}
	if res.RevokedBenign > bound {
		t.Errorf("colluders revoked %d benign, bound %d", res.RevokedBenign, bound)
	}
}

func TestCollusionNeedsEnoughColluders(t *testing.T) {
	// With τ' + 1 > Na and alert dedup, colluders cannot revoke anyone.
	cfg := smallConfig(0.2, 5)
	cfg.Collude = true
	cfg.Deploy.Na = 2
	cfg.Revoke = revoke.Config{ReportCap: 10, AlertThreshold: 2}
	res := run(t, cfg)
	if res.RevokedBenign != 0 {
		t.Errorf("2 colluders revoked %d benign despite τ'+1=3", res.RevokedBenign)
	}
}

func TestWormholeCausesBoundedFalseAlerts(t *testing.T) {
	// One analog wormhole, perfect strategy camouflage irrelevant: false
	// alerts between benign beacons appear at rate ≈ (1 - p_d) per
	// cross-tunnel probe, and with τ' = 2 a few benign revocations can
	// occur near the tunnel — but far fewer than with no detector.
	cfg := smallConfig(0, 6)
	cfg.Wormholes = []WormholeSpec{{A: geo.Point{X: 100, Y: 100}, B: geo.Point{X: 450, Y: 400}, Latency: 2}}
	cfg.WormholeRate = 0.9
	res09 := run(t, cfg)

	cfg.Seed = 6 // same seeds, weaker detector
	cfg.WormholeRate = 0
	res00 := run(t, cfg)

	if res09.BenignAlerts >= res00.BenignAlerts && res00.BenignAlerts > 0 {
		t.Errorf("p_d=0.9 produced %d false alerts vs %d at p_d=0",
			res09.BenignAlerts, res00.BenignAlerts)
	}
	if res00.BenignAlerts == 0 {
		t.Error("wormhole with no detector produced no false alerts (tunnel inactive?)")
	}
}

func TestAblationRTTFilterPreventsFalsePositives(t *testing.T) {
	// The RTT filter exists to avoid false positives: when a local
	// attacker replays benign beacon signals, a detecting node that
	// missed the original (collision) but hears the replay measures the
	// wrong distance and would accuse the benign source. With the filter
	// the replay is discarded; without it, false alerts appear.
	base := smallConfig(0, 7)
	base.Strategy = analysis.Strategy{PN: 1} // compromised nodes stay quiet
	// Blanket the field with replay attackers so collisions plus
	// replays are common.
	for x := 100.0; x < 550; x += 150 {
		for y := 100.0; y < 550; y += 150 {
			base.ReplayAttackers = append(base.ReplayAttackers, geo.Point{X: x, Y: y})
		}
	}
	resOn := run(t, base)

	off := base
	off.DisableRTTFilter = true
	resOff := run(t, off)

	if resOn.BenignAlerts != 0 {
		t.Errorf("with RTT filter: %d false alerts between benign beacons", resOn.BenignAlerts)
	}
	if resOff.BenignAlerts == 0 {
		t.Error("without RTT filter: replay attackers induced no false alerts " +
			"(ablation shows nothing)")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := run(t, smallConfig(0.3, 9))
	b := run(t, smallConfig(0.3, 9))
	if a.RevokedMalicious != b.RevokedMalicious ||
		a.RevokedBenign != b.RevokedBenign ||
		a.TrueAlerts != b.TrueAlerts ||
		a.Localized != b.Localized ||
		a.LocErrMean != b.LocErrMean {
		t.Errorf("same-seed runs diverged: %+v vs %+v", a, b)
	}
}

func TestMetricsPlausibility(t *testing.T) {
	res := run(t, smallConfig(0.3, 10))
	if res.AvgNc <= 0 {
		t.Errorf("AvgNc = %v", res.AvgNc)
	}
	if res.RTTThreshold <= 0 {
		t.Errorf("RTTThreshold = %v", res.RTTThreshold)
	}
	if res.Localized == 0 {
		t.Error("nothing localized")
	}
	if got := len(res.Sensors()); got != 300-33 {
		t.Errorf("Sensors() = %d", got)
	}
	if got := len(res.Beacons()); got != 30 {
		t.Errorf("Beacons() = %d", got)
	}
	if got := len(res.MaliciousNodes()); got != 3 {
		t.Errorf("MaliciousNodes() = %d", got)
	}

	// Instrumentation aggregate: every layer's counters must be live and
	// mutually consistent for a single run.
	m := res.Metrics
	if m.Runs != 1 {
		t.Errorf("Metrics.Runs = %d", m.Runs)
	}
	if m.Sim.Events == 0 || m.Sim.Scheduled < m.Sim.Events {
		t.Errorf("sim stats implausible: %+v", m.Sim)
	}
	if m.Radio.Transmissions == 0 || m.Radio.Deliveries == 0 || m.Radio.BytesOnAir == 0 {
		t.Errorf("radio stats empty: %+v", m.Radio)
	}
	if m.Link.Sent == 0 || m.Link.Delivered == 0 {
		t.Errorf("link stats empty: %+v", m.Link)
	}
	if m.Probes.Probes == 0 || m.Probes.Replies == 0 {
		t.Errorf("probe stats empty: %+v", m.Probes)
	}
	if m.Probes.Replies > m.Probes.Probes+m.Probes.Retries {
		t.Errorf("more replies than attempts: %+v", m.Probes)
	}
	if m.Filters.DetectorBenign == 0 {
		t.Errorf("filter verdicts empty: %+v", m.Filters)
	}
	if m.Revocation.Base.Handled == 0 {
		t.Errorf("revocation stats implausible: %+v", m.Revocation)
	}
	names := make([]string, len(m.Phases))
	var phaseEvents uint64
	for i, s := range m.Phases {
		names[i] = s.Name
		phaseEvents += s.Events
	}
	want := []string{"announce", "collude", "detect", "localize", "drain"}
	if len(names) != len(want) {
		t.Fatalf("phases = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("phases = %v, want %v", names, want)
		}
	}
	if phaseEvents != m.Sim.Events {
		t.Errorf("phase events %d do not cover sim events %d", phaseEvents, m.Sim.Events)
	}
}

func TestPaperScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run in -short mode")
	}
	res := run(t, Paper())
	if res.DetectionRate < 0.5 {
		t.Errorf("paper-scale detection rate %v at P=0.2", res.DetectionRate)
	}
	// Colluders force benign revocations near the N_a(τ+1)/(τ'+1) bound.
	bound := 10 * 11 / 3
	if res.RevokedBenign > bound {
		t.Errorf("benign revocations %d above bound %d", res.RevokedBenign, bound)
	}
	if res.Localized < 500 {
		t.Errorf("only %d sensors localized", res.Localized)
	}
}

func TestDistributedRevocationCoverage(t *testing.T) {
	// The future-work variant: no base station; each beacon's local
	// ledger should still revoke an aggressive attacker for most of its
	// neighbors.
	cfg := smallConfig(1.0, 20)
	cfg.Distributed = true
	res := run(t, cfg)
	if res.LocalCoverage < 0.5 {
		t.Errorf("local revocation coverage %v at P=1, want most neighbors", res.LocalCoverage)
	}
	if res.RevokedMalicious != 0 {
		t.Errorf("base station revoked %d nodes in the distributed variant", res.RevokedMalicious)
	}
}

func TestDistributedCollusionFramesLocally(t *testing.T) {
	// Without the base station's global report caps, colluders frame
	// neighborhoods: local false revocations appear — the reason the
	// paper keeps the base station.
	cfg := smallConfig(0, 21)
	cfg.Distributed = true
	cfg.Collude = true
	res := run(t, cfg)
	if res.LocalFalseRevocations == 0 {
		t.Skip("colluders had too few beacon neighbors this seed")
	}
	clean := smallConfig(0, 21)
	clean.Distributed = true
	cleanRes := run(t, clean)
	if cleanRes.LocalFalseRevocations > res.LocalFalseRevocations {
		t.Errorf("collusion reduced local false revocations: %v vs %v",
			res.LocalFalseRevocations, cleanRes.LocalFalseRevocations)
	}
}

func TestDistributedBenignNoFalseLocalRevocations(t *testing.T) {
	cfg := smallConfig(0, 22) // quiet attackers, no wormholes, no collusion
	cfg.Distributed = true
	res := run(t, cfg)
	if res.LocalFalseRevocations != 0 {
		t.Errorf("benign network produced %v local false revocations", res.LocalFalseRevocations)
	}
}

// TestRunAllocs pins the heap objects one paper-path run allocates per
// probe, calibration and node construction included. A request/reply
// exchange allocates one object in steady state (the box packet.Decode
// puts a decoded reply in): requests, probes and send records are
// preallocated or pooled and fire through their own events, and a
// reception's bytes live in the medium's pooled record. Putting back one
// malloc per exchange breaks the bound.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs allocation behavior; pin not meaningful")
	}
	cfg := smallConfig(0.3, 21)
	var probes uint64
	perRun := testing.AllocsPerRun(1, func() {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		probes = res.Metrics.Probes.Probes
	})
	perProbe := perRun / float64(probes)
	t.Logf("%.0f mallocs over %d probes: %.2f per probe", perRun, probes, perProbe)
	// 5.25 per probe (16,486 over 3,138) when the bound was set, against
	// 15.3 before exchanges stopped allocating.
	if perProbe > 5.75 {
		t.Errorf("%.2f mallocs per probe, want at most 5.75", perProbe)
	}
}

// BenchmarkScenarioPaperScale runs one full paper-scale simulation per
// iteration — the headline end-to-end cost.
func BenchmarkScenarioPaperScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := Paper()
		cfg.Seed = uint64(i + 1)
		cfg.CalibrationTrials = 500
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
