package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// metroGoldenPath is the full MetroResult of MetroPaper(20_000, 1),
// generated by the serial kernel before the sharded kernel became the
// only one, minus sim.virtual_cycles (the sharded kernel rounds the clock
// up to an epoch boundary).
var metroGoldenPath = filepath.Join("..", "..", "results", "golden", "metro_20k_seed1.json")

// metroGoldenJSON renders r in the golden's form: the MetroResult JSON
// with sim.virtual_cycles dropped, indented, numbers kept verbatim.
func metroGoldenJSON(t *testing.T, r *MetroResult) []byte {
	t.Helper()
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	delete(doc["sim"].(map[string]any), "virtual_cycles")
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestRunMetroGolden pins the kernel to the committed metro golden: the
// one-shard run must reproduce all of it, and a four-worker run its
// identity projection.
func TestRunMetroGolden(t *testing.T) {
	raw, err := os.ReadFile(metroGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing: %v", err)
	}
	var golden MetroResult
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	wantID, _ := json.Marshal(golden.Identity())

	cfg := MetroPaper(20_000, 1)
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		res, err := RunMetro(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			if got := metroGoldenJSON(t, res); !bytes.Equal(got, raw) {
				t.Errorf("K=1 diverged from the golden:\n--- want\n%s\n--- got\n%s", raw, got)
			}
			continue
		}
		if got, _ := json.Marshal(res.Identity()); !bytes.Equal(got, wantID) {
			t.Errorf("workers=%d diverged from the golden identity:\nwant %s\ngot  %s", workers, wantID, got)
		}
	}
}
