package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"beaconsec/internal/geo"
)

// scenarioGoldenPath is json.Marshal of Run on goldenConfig, generated
// while the radio medium still resolved every transmission's receivers
// with a spatial-grid query (and, equivalently, the O(N) scan).
var scenarioGoldenPath = filepath.Join("..", "..", "results", "golden", "scenario_small_seed21.json")

// goldenConfig exercises every delivery path: CSMA contention, a
// wormhole tunnel and a replay attacker (Inject from arbitrary points)
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

// TestRunGolden pins a full run to the committed golden byte for byte,
// so a change in receiver set, visit order or rng draw order anywhere
// in the medium surfaces as a diff.
func TestRunGolden(t *testing.T) {
	want, err := os.ReadFile(scenarioGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing: %v", err)
	}
	res, err := Run(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("run diverges from the golden at byte %d:\n  want: …%s…\n  got:  …%s…",
			i, excerpt(want, i), excerpt(got, i))
	}
}

// excerpt returns up to 60 bytes either side of b[i].
func excerpt(b []byte, i int) []byte {
	return b[max(i-60, 0):min(i+60, len(b))]
}
