package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"beaconsec/internal/textplot"
)

// goldenDoc is the stable projection of the -json export the golden file
// pins: run parameters plus every figure's series and notes, with the
// wall-clock metrics (and any fields added after the golden was cut)
// stripped. CI regenerates the same projection with jq.
type goldenDoc struct {
	Seed    uint64         `json:"seed"`
	Quick   bool           `json:"quick"`
	Results []goldenResult `json:"results"`
}

type goldenResult struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []textplot.Series
	Notes  []string
}

func goldenProject(t *testing.T, raw []byte) []byte {
	t.Helper()
	var doc goldenDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("projection does not parse: %v", err)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenDefaultDetectorByteIdentity pins the refactor's headline
// contract: with the default (paper) detector, the quick seed-1
// detection figures are byte-identical to the output committed before
// the detector registry existed, at one worker and at a small pool.
func TestGoldenDefaultDetectorByteIdentity(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "results", "golden", "detect_quick_seed1.json"))
	if err != nil {
		t.Fatalf("golden file missing: %v", err)
	}
	want := goldenProject(t, golden)

	for _, workers := range []int{1, 2} {
		path := filepath.Join(t.TempDir(), "out.json")
		var b strings.Builder
		args := []string{"-fig", "fig12,fig13", "-quick", "-seed", "1",
			"-progress=false", "-workers", strconv.Itoa(workers), "-json", path}
		if err := run(args, &b); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := goldenProject(t, raw); !bytes.Equal(want, got) {
			t.Errorf("workers=%d: output diverged from the pre-refactor golden:\n--- want\n%s\n--- got\n%s",
				workers, want, got)
		}
	}
}

// TestRunRejectsUnknownDetector: a detector name outside the three must
// fail before any simulation, naming the known ones.
func TestRunRejectsUnknownDetector(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-fig", "fig05", "-quick", "-progress=false",
		"-detectors", "paper,bogus"}, &b)
	if err == nil {
		t.Fatal("unknown detector accepted")
	}
	for _, want := range []string{`unknown detector "bogus"`, "mahalanobis", "ml", "paper"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestRunRejectsMalformedDetectorSpec: the detectors take no parameters,
// so the old name{k=v} form fails fast too, as do empty and repeated
// entries.
func TestRunRejectsMalformedDetectorSpec(t *testing.T) {
	for _, spec := range []string{"ml{bias=", "ml{bias=20}", "mahalanobis{threshold=2.5},paper", "paper,,ml", "paper,paper"} {
		err := run([]string{"-fig", "fig05", "-quick", "-progress=false",
			"-detectors", spec}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "mahalanobis, ml, paper") {
			t.Errorf("-detectors %q: got %v, want an error listing the detectors", spec, err)
		}
	}
}

// TestParseDetectorsAcceptsList covers the happy path: a list of names,
// with space around them, runs.
func TestParseDetectorsAcceptsList(t *testing.T) {
	if err := run([]string{"-fig", "fig05", "-quick", "-progress=false",
		"-detectors", " paper, mahalanobis ,ml"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}
