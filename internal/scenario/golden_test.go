package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"beaconsec/internal/geo"
)

// scenarioGoldenPath is json.Marshal of Run on goldenConfig, regenerated
// once when the medium began to draw from streams keyed by (origin,
// launch, receiver) and to count receptions only (DESIGN.md §9). Its
// scheduler accounting is compared with schedGoldenPath instead.
var scenarioGoldenPath = filepath.Join("..", "..", "results", "golden", "scenario_small_seed21.json")

// schedGoldenPath pins the scheduler's own accounting of the same run
// (see schedAccounting) since radios filter frames by link address:
// receptions at radios that do not own a frame's destination take no
// event.
var schedGoldenPath = filepath.Join("..", "..", "results", "golden", "scenario_small_seed21_sched.json")

// goldenConfig exercises every delivery path: CSMA contention, a
// wormhole tunnel and a replay attacker (Inject through their ports)
// and collusion traffic.
func goldenConfig() Config {
	cfg := smallConfig(0.3, 21)
	cfg.Wormholes = []WormholeSpec{{
		A: geo.Point{X: 100, Y: 100},
		B: geo.Point{X: 450, Y: 450},
	}}
	cfg.ReplayAttackers = []geo.Point{{X: 275, Y: 275}}
	cfg.Collude = true
	return cfg
}

// TestRunGolden pins a full run to the committed goldens byte for byte,
// so a change in receiver set, in what a draw is keyed by or in what the
// medium counts surfaces as a diff. The scheduler's own accounting is
// compared with its own golden, and everything else with the run's.
func TestRunGolden(t *testing.T) {
	res, err := Run(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	got, gotSched := schedAccounting(t, raw)
	wantRaw, err := os.ReadFile(scenarioGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing: %v", err)
	}
	want, _ := schedAccounting(t, wantRaw)
	wantSched, err := os.ReadFile(schedGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing: %v", err)
	}
	compareGolden(t, "run", got, want)
	compareGolden(t, "scheduler accounting", gotSched, wantSched)
}

// schedAccounting splits a marshalled Result into the fields that count
// only the scheduler's own work — Metrics.sim.{events,scheduled,
// max_pending}, Metrics.queue_depth and Metrics.phases[].events — and
// everything else, each re-marshalled. Numbers keep their literal
// text, and keys come out sorted.
func schedAccounting(t *testing.T, raw []byte) (rest, sched []byte) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var res map[string]any
	if err := dec.Decode(&res); err != nil {
		t.Fatal(err)
	}
	m := res["Metrics"].(map[string]any)
	sim := m["sim"].(map[string]any)
	acct := map[string]any{"queue_depth": m["queue_depth"]}
	for _, k := range []string{"events", "scheduled", "max_pending"} {
		acct[k] = sim[k]
		delete(sim, k)
	}
	delete(m, "queue_depth")
	var phaseEvents []any
	for _, p := range m["phases"].([]any) {
		phase := p.(map[string]any)
		phaseEvents = append(phaseEvents, phase["events"])
		delete(phase, "events")
	}
	acct["phase_events"] = phaseEvents
	rest, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sched, err = json.Marshal(acct)
	if err != nil {
		t.Fatal(err)
	}
	return rest, sched
}

// compareGolden fails the test at the first byte where got and want
// differ.
func compareGolden(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	t.Errorf("%s diverges from the golden at byte %d:\n  want: …%s…\n  got:  …%s…",
		what, i, excerpt(want, i), excerpt(got, i))
}

// excerpt returns up to 60 bytes either side of b[i].
func excerpt(b []byte, i int) []byte {
	return b[max(i-60, 0):min(i+60, len(b))]
}
