package node

import (
	"math"
	"slices"
	"testing"

	"beaconsec/internal/analysis"
	"beaconsec/internal/core"
	"beaconsec/internal/crypto"
	"beaconsec/internal/deploy"
	"beaconsec/internal/geo"
	"beaconsec/internal/ident"
	"beaconsec/internal/mac"
	"beaconsec/internal/packet"
	"beaconsec/internal/phy"
	"beaconsec/internal/revoke"
	"beaconsec/internal/rng"
	"beaconsec/internal/sim"
)

// fixture is a hand-placed micro-network:
//
//	index 0: benign beacon   at (0, 0)
//	index 1: benign beacon   at (100, 0)
//	index 2: malicious beacon at (50, 80)
//	index 3: sensor          at (50, 30)
//	index 4: sensor          at (40, 60)
//
// Everyone is within the 150 ft range of everyone else.
type fixture struct {
	sched *sim.Scheduler
	env   *Env
	bs    *revoke.Sharded
	dep   *deploy.Deployment
}

func newFixture(t *testing.T, seed uint64, strategy analysis.Strategy) (*fixture, []*Beacon, *Malicious, []*Sensor) {
	t.Helper()
	cfg := deploy.Config{
		N:            5,
		Nb:           3,
		Na:           1,
		Field:        geo.Square(200),
		Range:        150,
		DetectingIDs: 4,
		Seed:         seed,
	}
	locs := []geo.Point{
		{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 50, Y: 80}, {X: 50, Y: 30}, {X: 40, Y: 60},
	}
	f := newTestEnv(t, seed, deploy.NewManual(cfg, locs, []int{2}))
	env := f.env

	b0 := NewBeacon(env, 0)
	b1 := NewBeacon(env, 1)
	mal := NewMalicious(env, 2, MaliciousConfig{Strategy: strategy})
	s0 := NewSensor(env, 3)
	s1 := NewSensor(env, 4)

	b0.AnnounceAt(sim.Millis(10))
	b1.AnnounceAt(sim.Millis(120))
	mal.AnnounceAt(sim.Millis(240))

	return f, []*Beacon{b0, b1}, mal, []*Sensor{s0, s1}
}

// newTestEnv builds the substrate a test's nodes run on over dep: a
// medium with ±10 ft ranging, a one-shard base station and the paper
// detector with a calibrated RTT threshold.
func newTestEnv(t *testing.T, seed uint64, dep *deploy.Deployment) *fixture {
	t.Helper()
	src := rng.New(seed)
	sched := sim.New()
	medium := phy.NewMedium(sched, src.Split("medium"), phy.Config{
		Range:      dep.Cfg.Range,
		RangeError: 10,
	})
	bs := revoke.NewSharded(revoke.Config{ReportCap: 10, AlertThreshold: 0}, 1)
	coreCfg := core.Config{
		MaxDistError: 10,
		MaxRTT:       core.CalibrateRTT(1000, seed).Threshold(),
		Range:        dep.Cfg.Range,
	}
	det, err := core.NewDetector(core.DefaultDetectorName, coreCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{
		Sched:        sched,
		Medium:       medium,
		Keys:         crypto.NewKeyring(crypto.NewMaster([]byte("node-test"))),
		Dep:          dep,
		Core:         coreCfg,
		Detector:     det,
		Uplink:       revoke.NewUplink(sched, bs),
		Src:          src.Split("nodes"),
		WormholeRate: 0.9,
	}
	return &fixture{sched: sched, env: env, bs: bs, dep: dep}
}

func (f *fixture) run(t *testing.T) {
	t.Helper()
	f.sched.RunUntil(sim.Seconds(30))
	f.sched.Run()
}

func TestDiscoveryViaHello(t *testing.T) {
	f, beacons, mal, sensors := newFixture(t, 1, analysis.Strategy{PN: 1})
	f.run(t)
	if got := beacons[0].NeighborBeacons(); len(got) != 2 {
		t.Errorf("beacon 0 discovered %v, want 2 beacon neighbors", got)
	}
	for _, s := range sensors {
		nbrs := s.NeighborBeacons()
		if len(nbrs) != 3 {
			t.Errorf("sensor %v discovered %v, want all 3 beacons", s.ID(), nbrs)
		}
	}
	_ = mal
}

func TestAlwaysNormalMaliciousNotDetected(t *testing.T) {
	// Strategy p_n = 1: the compromised node behaves benignly — it must
	// never be accused (P = 0 ⇒ P_r = 0).
	f, beacons, mal, _ := newFixture(t, 2, analysis.Strategy{PN: 1})
	for _, b := range beacons {
		b.StartDetection(sim.Seconds(1), sim.Seconds(10))
	}
	f.run(t)
	if f.bs.Revoked(mal.ID()) {
		t.Error("benign-behaving compromised node was revoked")
	}
	for _, b := range beacons {
		if len(b.AlertsSent) != 0 {
			t.Errorf("beacon %v alerted on %v", b.ID(), b.AlertsSent)
		}
		if b.Verdicts[core.VerdictMalicious] != 0 {
			t.Errorf("beacon %v verdicts: %v", b.ID(), b.Verdicts)
		}
	}
}

func TestAlwaysAttackMaliciousDetectedAndRevoked(t *testing.T) {
	// Strategy P = 1: every signal is an attack; every detecting beacon
	// catches it; τ' = 0 revokes on the first alert.
	f, beacons, mal, _ := newFixture(t, 3, analysis.Strategy{})
	for _, b := range beacons {
		b.StartDetection(sim.Seconds(1), sim.Seconds(10))
	}
	f.run(t)
	if !f.bs.Revoked(mal.ID()) {
		t.Fatal("always-attacking malicious beacon not revoked")
	}
	// Benign beacons must not accuse each other.
	for _, b := range beacons {
		for _, target := range b.AlertsSent {
			if target != mal.ID() {
				t.Errorf("beacon %v accused benign node %v", b.ID(), target)
			}
		}
	}
}

func TestBenignBeaconsNeverAccuseEachOther(t *testing.T) {
	for seed := uint64(10); seed < 15; seed++ {
		f, beacons, _, _ := newFixture(t, seed, analysis.Strategy{})
		for _, b := range beacons {
			b.StartDetection(sim.Seconds(1), sim.Seconds(10))
		}
		f.run(t)
		for _, b := range beacons {
			for _, other := range beacons {
				if b != other && f.bs.AlertCount(other.ID()) > 0 && b.alerted[other.ID()] {
					t.Fatalf("seed %d: benign beacon %v accused benign %v", seed, b.ID(), other.ID())
				}
			}
		}
	}
}

func TestFakeWormholeStrategyAvoidsDetectionAndSensors(t *testing.T) {
	// Strategy p_w = 1: every signal is camouflaged as a wormhole
	// replay; detecting nodes discard it (no alert) and sensors discard
	// it too (no references from the malicious node).
	f, beacons, mal, sensors := newFixture(t, 4, analysis.Strategy{PW: 1})
	for _, b := range beacons {
		b.StartDetection(sim.Seconds(1), sim.Seconds(10))
	}
	for _, s := range sensors {
		s.StartRequests(sim.Seconds(12), sim.Seconds(10))
	}
	f.run(t)
	if f.bs.Revoked(mal.ID()) {
		t.Error("wormhole-camouflaged node was revoked")
	}
	wormholeVerdicts := 0
	for _, b := range beacons {
		wormholeVerdicts += b.Verdicts[core.VerdictWormholeReplay]
		if len(b.AlertsSent) != 0 {
			t.Errorf("beacon %v alerted: %v", b.ID(), b.AlertsSent)
		}
	}
	if wormholeVerdicts == 0 {
		t.Error("no wormhole-replay verdicts recorded")
	}
	for _, s := range sensors {
		if s.AcceptedFrom[mal.ID()] {
			t.Errorf("sensor %v accepted camouflaged signal", s.ID())
		}
	}
}

func TestFakeReplayStrategyAvoidsDetectionAndSensors(t *testing.T) {
	f, beacons, mal, sensors := newFixture(t, 5, analysis.Strategy{PL: 1})
	for _, b := range beacons {
		b.StartDetection(sim.Seconds(1), sim.Seconds(10))
	}
	for _, s := range sensors {
		s.StartRequests(sim.Seconds(12), sim.Seconds(10))
	}
	f.run(t)
	if f.bs.Revoked(mal.ID()) {
		t.Error("replay-camouflaged node was revoked")
	}
	replayVerdicts := 0
	for _, b := range beacons {
		replayVerdicts += b.Verdicts[core.VerdictLocalReplay]
	}
	for _, s := range sensors {
		replayVerdicts += s.Verdicts[core.VerdictLocalReplay]
		if s.AcceptedFrom[mal.ID()] {
			t.Errorf("sensor %v accepted replay-camouflaged signal", s.ID())
		}
	}
	if replayVerdicts == 0 {
		t.Error("no local-replay verdicts recorded")
	}
}

func TestSensorAcceptsAttackWithoutOwnLocation(t *testing.T) {
	// The asymmetry the revocation scheme exists for: sensors cannot run
	// the consistency check, so an attack signal (enlarged distance)
	// passes their filters and corrupts their references.
	f, _, mal, sensors := newFixture(t, 6, analysis.Strategy{})
	for _, s := range sensors {
		s.StartRequests(sim.Seconds(1), sim.Seconds(10))
	}
	f.run(t)
	accepted := 0
	for _, s := range sensors {
		if s.AcceptedFrom[mal.ID()] {
			accepted++
			if !mal.AttackedIDs[s.ID()] {
				t.Errorf("sensor %v accepted but not in AttackedIDs", s.ID())
			}
		}
	}
	if accepted == 0 {
		t.Error("no sensor accepted the attack signal (filters are over-aggressive)")
	}
}

func TestSensorLocalizationCleanNetwork(t *testing.T) {
	f, _, _, sensors := newFixture(t, 7, analysis.Strategy{PN: 1})
	for _, s := range sensors {
		s.StartRequests(sim.Seconds(1), sim.Seconds(10))
	}
	f.run(t)
	for _, s := range sensors {
		e, ok := s.LocalizationError()
		if !ok {
			t.Fatalf("sensor %v failed to localize (refs: %d)", s.ID(), len(s.References))
		}
		// 3 references with ±10 ft ranging error; the estimate should
		// land within a small multiple.
		if e > 30 {
			t.Errorf("sensor %v localization error %v ft", s.ID(), e)
		}
	}
}

func TestSensorRevocationDropsReferences(t *testing.T) {
	f, _, mal, sensors := newFixture(t, 8, analysis.Strategy{})
	s := sensors[0]
	for _, x := range sensors {
		x.StartRequests(sim.Seconds(1), sim.Seconds(10))
	}
	f.run(t)
	if !s.AcceptedFrom[mal.ID()] {
		t.Skip("sensor did not accept from malicious node this seed")
	}
	before := len(s.References)
	s.MarkRevoked(mal.ID())
	if len(s.References) != before-1 {
		t.Errorf("references after revocation: %d, want %d", len(s.References), before-1)
	}
	if s.AcceptedFrom[mal.ID()] {
		t.Error("AcceptedFrom survived revocation")
	}
	if !s.revoked[mal.ID()] {
		t.Error("revoked set misses the target after MarkRevoked")
	}
}

func TestMaliciousDeterministicPerRequester(t *testing.T) {
	f, _, mal, _ := newFixture(t, 9, analysis.Strategy{PN: 0.5})
	_ = f
	for req := ident.NodeID(500); req < 540; req++ {
		a := mal.ActionFor(req)
		for i := 0; i < 5; i++ {
			if got := mal.ActionFor(req); got != a {
				t.Fatalf("ActionFor(%v) flapped: %v then %v", req, a, got)
			}
		}
	}
}

func TestMaliciousStrategyFrequencies(t *testing.T) {
	f, _, mal, _ := newFixture(t, 10, analysis.Strategy{PN: 0.3, PW: 0.4, PL: 0.5})
	_ = f
	counts := make(map[Action]int)
	const n = 4000
	for i := 0; i < n; i++ {
		counts[mal.ActionFor(ident.NodeID(1000+i))]++
	}
	check := func(a Action, want float64) {
		got := float64(counts[a]) / n
		if got < want-0.05 || got > want+0.05 {
			t.Errorf("action %v frequency %v, want ≈ %v", a, got, want)
		}
	}
	check(ActNormal, 0.3)
	check(ActFakeWormhole, 0.7*0.4)
	check(ActFakeReplay, 0.7*0.6*0.5)
	check(ActAttack, 0.7*0.6*0.5) // P = (1-.3)(1-.4)(1-.5) = 0.21
}

func TestReplayAttackerCaughtByRTTFilter(t *testing.T) {
	// A locally replayed beacon signal must be discarded by the RTT
	// filter and must NOT trigger an alert against the benign source
	// (the paper's false-positive-avoidance claim).
	f, beacons, _, sensors := newFixture(t, 11, analysis.Strategy{PN: 1})
	attacker := NewReplayAttacker(f.env.Medium, geo.Point{X: 60, Y: 40})
	for _, b := range beacons {
		b.StartDetection(sim.Seconds(1), sim.Seconds(10))
	}
	for _, s := range sensors {
		s.StartRequests(sim.Seconds(12), sim.Seconds(10))
	}
	f.run(t)
	if attacker.Replayed == 0 {
		t.Fatal("attacker replayed nothing")
	}
	for _, b := range beacons {
		if len(b.AlertsSent) != 0 {
			t.Errorf("replay attacker induced alerts: %v", b.AlertsSent)
		}
	}
	for _, id := range f.bs.RevokedSet() {
		t.Errorf("node %v revoked under replay attack", id)
	}
}

func TestNewBeaconWrongKindPanics(t *testing.T) {
	f, _, _, _ := newFixture(t, 12, analysis.Strategy{PN: 1})
	defer func() {
		if recover() == nil {
			t.Error("NewBeacon on malicious index did not panic")
		}
	}()
	NewBeacon(f.env, 2)
}

func TestNewMaliciousWrongKindPanics(t *testing.T) {
	f, _, _, _ := newFixture(t, 13, analysis.Strategy{PN: 1})
	defer func() {
		if recover() == nil {
			t.Error("NewMalicious on benign index did not panic")
		}
	}()
	NewMalicious(f.env, 0, MaliciousConfig{})
}

func TestNewSensorWrongKindPanics(t *testing.T) {
	f, _, _, _ := newFixture(t, 14, analysis.Strategy{PN: 1})
	defer func() {
		if recover() == nil {
			t.Error("NewSensor on beacon index did not panic")
		}
	}()
	NewSensor(f.env, 0)
}

func TestBeaconServesOnlyPrimaryIdentity(t *testing.T) {
	// Requests addressed to a detecting pseudonym must not be served: the
	// pseudonyms are requesters, not beacons — answering would expose
	// them.
	f, beacons, _, _ := newFixture(t, 15, analysis.Strategy{PN: 1})
	b0 := beacons[0]
	detID := f.env.Dep.Space.DetectingID(0, 0)

	// A sensor-grade endpoint requests a beacon signal from the pseudonym.
	probeStore := crypto.NewStore(f.env.Keys, 4999)
	probeRadio := f.env.Medium.NewRadio(geo.Point{X: 10, Y: 10})
	probe := mac.NewEndpoint(f.env.Sched, probeRadio, probeStore, rng.Make(99))
	replies := 0
	probe.SetHandler(func(d mac.Delivery) {
		if _, ok := d.Pkt.Payload.(packet.BeaconReply); ok {
			replies++
		}
	})
	f.env.Sched.At(sim.Seconds(1), func() {
		probe.Send(detID, packet.BeaconRequest{}, mac.SendOptions{})
	})
	f.run(t)
	if replies != 0 {
		t.Errorf("detecting pseudonym served %d beacon replies", replies)
	}
	if b0.RepliesServed != 0 {
		t.Errorf("RepliesServed = %d for pseudonym-addressed request", b0.RepliesServed)
	}
}

func TestSensorIgnoresForgedRevocation(t *testing.T) {
	// Only the base station may revoke: a revoke packet from a regular
	// node must be ignored.
	f, _, mal, sensors := newFixture(t, 16, analysis.Strategy{PN: 1})
	s := sensors[0]
	forger := crypto.NewStore(f.env.Keys, 4998)
	forgerRadio := f.env.Medium.NewRadio(geo.Point{X: 45, Y: 25})
	forgerEp := mac.NewEndpoint(f.env.Sched, forgerRadio, forger, rng.Make(98))
	f.env.Sched.At(sim.Seconds(1), func() {
		forgerEp.Send(s.ID(), packet.Revoke{Target: mal.ID()}, mac.SendOptions{})
	})
	f.run(t)
	if s.revoked[mal.ID()] {
		t.Error("sensor honored a revocation not from the base station")
	}
}

// TestGossipFakeAlertsInIDOrder pins the colluders' gossip order: each
// fabricated alert goes to the beacon neighbours in ascending ID order,
// whatever order their hellos arrived in, so a run does not depend on
// map iteration order. The hellos arrive in descending ID order, so
// sending in the order they were heard fails too.
func TestGossipFakeAlertsInIDOrder(t *testing.T) {
	const rounds = 4
	locs := []geo.Point{
		{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: 100}, {X: 100, Y: 100}, {X: 30, Y: 60}, {X: 50, Y: 50},
	}
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := deploy.Config{N: 6, Nb: 6, Na: 1, Field: geo.Square(200), Range: 150, DetectingIDs: 1, Seed: seed}
		f := newTestEnv(t, seed, deploy.NewManual(cfg, locs, []int{5}))
		mal := NewMalicious(f.env, 5, MaliciousConfig{Strategy: analysis.Strategy{PN: 1}})
		var benign []*Beacon
		for i := 0; i < 5; i++ {
			benign = append(benign, NewBeacon(f.env, i))
		}
		for k := range benign {
			benign[len(benign)-1-k].AnnounceAt(sim.Millis(10 + 100*float64(k)))
		}
		// The destination of every alert the colluder puts on air, by
		// sequence number; a retransmission repeats its sequence number.
		dst := make(map[uint16]ident.NodeID)
		var seqs []uint16
		f.env.Medium.AddTap(func(_ geo.Point, fr phy.Frame, _ phy.TxInfo) {
			h, err := packet.PeekHeader(fr.Data)
			if err != nil || h.Type != packet.TypeAlert || h.Src != mal.ID() {
				return
			}
			if _, seen := dst[h.Seq]; !seen {
				dst[h.Seq] = h.Dst
				seqs = append(seqs, h.Seq)
			}
		})
		for r := 0; r < rounds; r++ {
			mal.GossipFakeAlertAt(sim.Seconds(1+float64(r)), benign[r].ID())
		}
		f.run(t)
		if len(mal.neighbors) != len(benign) {
			t.Fatalf("seed %d: colluder heard %d of %d beacon neighbours", seed, len(mal.neighbors), len(benign))
		}
		// Each round skips its target, so it sends len(benign)-1 alerts
		// with consecutive sequence numbers.
		per := len(benign) - 1
		if len(seqs) != rounds*per {
			t.Fatalf("seed %d: %d alerts on air, want %d", seed, len(seqs), rounds*per)
		}
		slices.Sort(seqs)
		for i := range seqs {
			if i%per != 0 && dst[seqs[i]] <= dst[seqs[i-1]] {
				t.Errorf("seed %d, round %d: alert to %d sent after alert to %d",
					seed, i/per, dst[seqs[i]], dst[seqs[i-1]])
			}
		}
	}
}

// TestFakeReplaySkew pins how much a fake replay under-reports its
// turnaround: a full 38-byte frame time beyond the RTT threshold, and
// the uint32 maximum when the RTT filter is off and the threshold is
// MaxFloat64, where a direct conversion would be left to the machine.
func TestFakeReplaySkew(t *testing.T) {
	f, _, mal, _ := newFixture(t, 1, analysis.Strategy{PN: 1})
	if want := uint32(f.env.Core.MaxRTT) + uint32(phy.FrameAirTime(38)); mal.skew != want {
		t.Errorf("skew = %d at threshold %v, want %d", mal.skew, f.env.Core.MaxRTT, want)
	}
	f.env.Core.MaxRTT = math.MaxFloat64
	off := NewMalicious(f.env, 2, MaliciousConfig{Strategy: analysis.Strategy{PN: 1}})
	if off.skew != math.MaxUint32 {
		t.Errorf("skew = %d with the RTT filter off, want %d", off.skew, uint32(math.MaxUint32))
	}
	for _, maxRTT := range []float64{math.NaN(), math.Inf(1), math.MaxUint32} {
		if got := fakeReplaySkew(maxRTT); got != math.MaxUint32 {
			t.Errorf("fakeReplaySkew(%v) = %d, want %d", maxRTT, got, uint32(math.MaxUint32))
		}
	}
}
