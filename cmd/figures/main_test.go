package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"beaconsec/internal/core"
	"beaconsec/internal/harness"
)

// TestRunJSONExportParsesBack runs a simulation-backed figure with -json
// and parses the document back into the result structs: the export must
// carry the series plus the aggregate ScenarioMetrics (phase timings,
// packet/collision/filter counters).
func TestRunJSONExportParsesBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	var b strings.Builder
	if err := run([]string{"-fig", "fig12", "-quick", "-progress=false", "-json", path}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc jsonDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("exported JSON does not parse: %v", err)
	}
	if doc.Seed != 1 || !doc.Quick || len(doc.Results) != 1 {
		t.Fatalf("document header wrong: seed=%d quick=%v results=%d",
			doc.Seed, doc.Quick, len(doc.Results))
	}
	res := doc.Results[0]
	if res.ID != "fig12" || len(res.Series) != 2 {
		t.Fatalf("fig12 result incomplete: %+v", res)
	}
	if res.Metrics == nil {
		t.Fatal("fig12 export has no metrics")
	}
	m := res.Metrics.Scenario
	if m.Runs == 0 || m.Radio.Transmissions == 0 || m.Link.Delivered == 0 {
		t.Errorf("metrics counters empty after parse-back: %+v", m)
	}
	if len(m.Phases) == 0 || m.Phases[0].Name != "announce" {
		t.Errorf("phase spans missing after parse-back: %+v", m.Phases)
	}
	if res.Metrics.Timing.Jobs == 0 {
		t.Errorf("timing missing after parse-back: %+v", res.Metrics.Timing)
	}
}

// TestRunJSONToStdout checks '-json -' streams the document to the
// writer instead of a file.
func TestRunJSONToStdout(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fig", "fig05", "-quick", "-progress=false", "-json", "-"}, &b); err != nil {
		t.Fatal(err)
	}
	idx := strings.Index(b.String(), "{")
	if idx < 0 {
		t.Fatalf("no JSON in output:\n%s", b.String())
	}
	var doc jsonDoc
	if err := json.Unmarshal([]byte(b.String()[idx:]), &doc); err != nil {
		t.Fatalf("stdout JSON does not parse: %v", err)
	}
	// fig05 is closed-form: no simulation, so no metrics.
	if doc.Results[0].Metrics != nil {
		t.Error("closed-form figure has metrics")
	}
}

// TestRunWritesProfiles checks -cpuprofile/-memprofile produce non-empty
// pprof files.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var b strings.Builder
	if err := run([]string{"-fig", "fig05", "-quick", "-progress=false",
		"-cpuprofile", cpu, "-memprofile", mem}, &b); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("missing profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestRunFlushesProfilesOnError checks the deferred flush: when the run
// itself fails after the figures ran (an unwritable -json file), both
// profiles must still be written and valid — a long profiled run that
// dies at the end should not lose its profile.
func TestRunFlushesProfilesOnError(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var b strings.Builder
	err := run([]string{"-fig", "fig05", "-quick", "-progress=false",
		"-json", filepath.Join(blockedDir(t), "r.json"),
		"-cpuprofile", cpu, "-memprofile", mem}, &b)
	if err == nil {
		t.Fatal("unwritable -json file accepted")
	}
	for _, p := range []string{cpu, mem} {
		st, serr := os.Stat(p)
		if serr != nil {
			t.Fatalf("profile %s not flushed on error path: %v", p, serr)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty after error-path flush", p)
		}
	}
}

// TestRunMemProfileErrorSurfaces checks a heap-profile flush failure is
// the command's error (nonzero exit), not a stderr whisper.
func TestRunMemProfileErrorSurfaces(t *testing.T) {
	mem := filepath.Join(t.TempDir(), "no-such-dir", "mem.pprof")
	var b strings.Builder
	err := run([]string{"-fig", "fig05", "-quick", "-progress=false",
		"-memprofile", mem}, &b)
	if err == nil {
		t.Fatal("unwritable memprofile path did not fail the run")
	}
	if !strings.Contains(err.Error(), "memprofile") {
		t.Errorf("error does not identify the memprofile: %v", err)
	}
}

func TestRunSingleFigure(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fig", "fig05", "-quick"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "fig05") || !strings.Contains(out, "m=8") {
		t.Errorf("figure output incomplete:\n%s", out)
	}
}

func TestRunWritesOutputFiles(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-fig", "fig05,fig10", "-quick", "-out", dir}, &b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig05.csv", "fig05.txt", "fig10.csv", "fig10.txt"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fig05.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "series,x,y\n") {
		t.Errorf("CSV header wrong: %q", string(csv[:20]))
	}
}

// TestRunRejectsOversizePlot pins the plot-size bound: a -width or
// -height above maxPlotSize is an error before run does anything — it
// does not even create the -out directory — while the bound itself and
// values below textplot's minimum still render.
func TestRunRejectsOversizePlot(t *testing.T) {
	for _, flag := range []string{"-width", "-height"} {
		for _, v := range []int64{math.MaxInt64, 1e10, maxPlotSize + 1} {
			out := filepath.Join(t.TempDir(), "out")
			var b strings.Builder
			err := run([]string{"-fig", "fig05", "-progress=false", "-out", out, flag, strconv.FormatInt(v, 10)}, &b)
			if err == nil || !strings.Contains(err.Error(), flag) {
				t.Errorf("%s %d: err = %v, want an error naming %s", flag, v, err, flag)
			}
			if _, serr := os.Stat(out); b.Len() != 0 || serr == nil {
				t.Errorf("%s %d: ran before failing (%d bytes printed, -out created: %v)", flag, v, b.Len(), serr == nil)
			}
		}
	}
	for _, size := range [][2]string{{"4096", "4"}, {"8", "4096"}, {"-3", "0"}} {
		var b strings.Builder
		if err := run([]string{"-fig", "fig05", "-width", size[0], "-height", size[1]}, &b); err != nil {
			t.Errorf("-width %s -height %s: %v", size[0], size[1], err)
		}
	}
}

// FuzzRun feeds run arbitrary -width, -height, -workers and -detectors
// values around the analytic fig05, writing no files: every value must
// run or return an error, never panic, and a run with a -detectors entry
// outside core.DetectorNames must be an error.
func FuzzRun(f *testing.F) {
	for _, v := range []struct {
		width, height, workers int
		detectors              string
	}{
		{72, 20, 0, ""},
		{math.MaxInt64, 20, 1, "paper,ml"},
		{72, 1e10, -1, "ml{bias=20,lambda=0.5}"},
		{maxPlotSize + 1, maxPlotSize, math.MaxInt64, " mahalanobis , paper"},
		{math.MinInt64, math.MinInt64, math.MinInt64, "nope,,"},
		{72, 20, 1, "mahalanobis,ml,paper"},
		{72, 20, 1, "paper,"},
	} {
		f.Add(v.width, v.height, v.workers, v.detectors)
	}
	f.Fuzz(func(t *testing.T, width, height, workers int, detectors string) {
		err := run([]string{"-fig", "fig05", "-progress=false",
			"-width", strconv.Itoa(width), "-height", strconv.Itoa(height),
			"-workers", strconv.Itoa(workers), "-detectors", detectors}, io.Discard)
		if err != nil || detectors == "" {
			return
		}
		for _, name := range strings.Split(detectors, ",") {
			if !slices.Contains(core.DetectorNames(), strings.TrimSpace(name)) {
				t.Fatalf("-detectors %q ran, but %q is not a detector", detectors, name)
			}
		}
	})
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-fig", "fig99"}, &b)
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	if !strings.Contains(err.Error(), "fig99") {
		t.Errorf("error does not name the bad figure: %v", err)
	}
}

// TestRunUnknownFigureTouchesNothing pins that -fig is resolved with the
// other flag values, before run touches a file: an unknown figure leaves
// a populated -cache-dir in place under -cache-clear and creates neither
// -out nor the -cpuprofile file.
func TestRunUnknownFigureTouchesNothing(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	entry := filepath.Join(cacheDir, "entry")
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entry, []byte("kept"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	cpu := filepath.Join(dir, "cpu.pprof")
	var b strings.Builder
	err := run([]string{"-fig", "fig05,fig99", "-cache", "-cache-clear", "-cache-dir", cacheDir,
		"-out", out, "-cpuprofile", cpu}, &b)
	if err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("err = %v, want an unknown-figure error naming fig99", err)
	}
	if _, serr := os.Stat(entry); serr != nil {
		t.Errorf("-cache-clear removed the cache before -fig was resolved: %v", serr)
	}
	for _, p := range []string{out, cpu} {
		if _, serr := os.Stat(p); serr == nil {
			t.Errorf("%s created before -fig was resolved", p)
		}
	}
}

func TestKnownIDsListsAll(t *testing.T) {
	ids := knownIDs()
	for _, want := range []string{"fig04", "fig14", "extra-localization", "extra-distributed"} {
		if !strings.Contains(ids, want) {
			t.Errorf("knownIDs missing %s: %s", want, ids)
		}
	}
}

// blockedDir returns a path that cannot be created: its parent is a
// regular file, which defeats MkdirAll for any privilege level (a
// read-only directory would not stop root).
func blockedDir(t *testing.T) string {
	t.Helper()
	parent := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(parent, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(parent, "dir")
}

// TestRunUnwritableOutFailsFast checks an unwritable -out dies with a
// clear error before any simulation runs (the error must name the dir).
func TestRunUnwritableOutFailsFast(t *testing.T) {
	dir := blockedDir(t)
	var b strings.Builder
	err := run([]string{"-fig", "fig12", "-quick", "-progress=false", "-out", dir}, &b)
	if err == nil {
		t.Fatal("unwritable -out accepted")
	}
	if !strings.Contains(err.Error(), "output dir") {
		t.Errorf("error does not identify the unwritable output dir: %v", err)
	}
	if b.Len() != 0 {
		t.Error("figures ran before the output dir was validated")
	}
}

// TestRunUnwritableCacheDirFailsFast: same contract for -cache-dir.
func TestRunUnwritableCacheDirFailsFast(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-fig", "fig12", "-quick", "-progress=false",
		"-cache", "-cache-dir", blockedDir(t)}, &b)
	if err == nil {
		t.Fatal("unwritable -cache-dir accepted")
	}
	if !strings.Contains(err.Error(), "cache dir") {
		t.Errorf("error does not identify the cache dir: %v", err)
	}
	if b.Len() != 0 {
		t.Error("figures ran before the cache dir was validated")
	}
}

// TestRunOutCreatesMissingDir checks -out creates nested directories.
func TestRunOutCreatesMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b", "figs")
	var b strings.Builder
	if err := run([]string{"-fig", "fig05", "-quick", "-out", dir}, &b); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig05.csv")); err != nil {
		t.Fatalf("output not written into created dir: %v", err)
	}
}

// TestRunCacheWarmRun pins the end-to-end cache flow: a second -cache run
// hits every trial, reports the hit rate on stdout, exports the tally in
// -json, and produces byte-identical figure results.
func TestRunCacheWarmRun(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	jsonPath := filepath.Join(t.TempDir(), "r.json")
	runOnce := func() (string, jsonDoc) {
		t.Helper()
		var b strings.Builder
		if err := run([]string{"-fig", "fig12", "-quick", "-progress=false",
			"-cache", "-cache-dir", cacheDir, "-json", jsonPath}, &b); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		var doc jsonDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		return b.String(), doc
	}

	_, cold := runOnce()
	if cold.Cache == nil || cold.Cache.Misses == 0 {
		t.Fatalf("cold run cache tally wrong: %+v", cold.Cache)
	}
	if cold.Env.NumCPU == 0 || cold.Env.GoVersion == "" {
		t.Fatalf("env metadata missing: %+v", cold.Env)
	}

	out, warm := runOnce()
	if warm.Cache == nil || warm.Cache.Hits == 0 || warm.Cache.HitRate() != 1 {
		t.Fatalf("warm run should hit everything: %+v", warm.Cache)
	}
	if !strings.Contains(out, "hit rate") {
		t.Errorf("no hit-rate summary on stdout:\n%s", out)
	}

	// Byte identity: the exported results (wall-clock timing aside) match.
	stripJSON := func(doc jsonDoc) string {
		for i := range doc.Results {
			if doc.Results[i].Metrics != nil {
				doc.Results[i].Metrics.Timing = harness.Timing{}
			}
		}
		b, err := json.Marshal(doc.Results)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if c, w := stripJSON(cold), stripJSON(warm); c != w {
		t.Fatalf("warm results diverged from cold:\n%s\nvs\n%s", c, w)
	}
}

// TestRunCacheClear checks -cache-clear empties the store: the run after
// a clear is cold again.
func TestRunCacheClear(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	jsonPath := filepath.Join(t.TempDir(), "r.json")
	runWith := func(extra ...string) jsonDoc {
		t.Helper()
		args := append([]string{"-fig", "fig12", "-quick", "-progress=false",
			"-cache", "-cache-dir", cacheDir, "-json", jsonPath}, extra...)
		var b strings.Builder
		if err := run(args, &b); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		var doc jsonDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}

	runWith()
	cleared := runWith("-cache-clear")
	if cleared.Cache.Hits != 0 {
		t.Fatalf("-cache-clear did not empty the store: %+v", cleared.Cache)
	}
}
