package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// baselineRuns is how many untraced runs a baseline records per workload.
const baselineRuns = 5

// baselineStat summarizes one end-to-end metric over the baseline's
// untraced runs. Spread is the interquartile range over the median.
type baselineStat struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
}

type baselineEntry struct {
	Workload string         `json:"workload"`
	Correct  bool           `json:"correct"`
	EndToEnd []baselineStat `json:"end_to_end"`
	// PerLayer and TracedExtras are the traced run's tables.
	PerLayer     []metric `json:"per_layer"`
	TracedExtras []metric `json:"traced_extras"`
	// TracingOverhead is the traced run's median unit wall time over the
	// untraced runs' median wall_s, minus one.
	TracingOverhead float64 `json:"tracing_overhead"`
	// DigestsMatch reports that every traced output digest equals the
	// untraced digest of the same seed.
	DigestsMatch bool `json:"digests_match"`
}

// writeBaseline records in cfg.baseline, for every workload, baselineRuns
// untraced seed-1 runs and one traced seed-1 run as <workload>.untraced.json
// and <workload>.traced.json, and their summary as summary.json. Every run
// is a fresh benchmark process, as a caller of run.sh starts it: a child's
// ru_maxrss includes the peak of the process that spawned it, so one
// long-lived process would report its own growing footprint as the
// children's.
func writeBaseline(ctx context.Context, cfg config, stdout, stderr io.Writer) error {
	if err := os.MkdirAll(cfg.baseline, 0o755); err != nil {
		return err
	}
	summary := struct {
		Env       envStamp        `json:"env"`
		Runs      int             `json:"runs"`
		Seconds   int             `json:"seconds"`
		Workloads []baselineEntry `json:"workloads"`
	}{Env: captureEnv(cfg.root, cfg.args), Runs: baselineRuns, Seconds: cfg.seconds}
	failed := false
	for _, w := range workloads {
		var runs []*record
		for i := 0; i < baselineRuns; i++ {
			rec, err := runFresh(ctx, cfg, w.name, false, stdout, stderr)
			if err != nil {
				return err
			}
			runs = append(runs, rec)
		}
		traced, err := runFresh(ctx, cfg, w.name, true, stdout, stderr)
		if err != nil {
			return err
		}
		if err := writeJSON(filepath.Join(cfg.baseline, w.name+".untraced.json"), runs); err != nil {
			return err
		}
		if err := writeJSON(filepath.Join(cfg.baseline, w.name+".traced.json"), traced); err != nil {
			return err
		}

		e := baselineEntry{Workload: w.name, Correct: traced.Correct, PerLayer: traced.Metrics, TracedExtras: traced.Extras}
		var untracedDigests []string
		for _, r := range runs {
			e.Correct = e.Correct && r.Correct
			untracedDigests = append(untracedDigests, r.Digests...)
		}
		for j, d := range endToEnd {
			var vals []float64
			for _, r := range runs {
				vals = append(vals, r.Metrics[j].Value)
			}
			q1, q2, q3 := quartiles(vals)
			e.EndToEnd = append(e.EndToEnd, baselineStat{d.name, d.unit, q2, q1, q3, (q3 - q1) / q2})
			if d.name == "wall_s" {
				for _, x := range traced.Extras {
					if x.Name == "wall_s" {
						e.TracingOverhead = x.Value/q2 - 1
					}
				}
			}
		}
		e.DigestsMatch = digestsMatch(traced.Digests, untracedDigests)
		failed = failed || !e.Correct || !e.DigestsMatch
		summary.Workloads = append(summary.Workloads, e)
	}
	if err := writeJSON(filepath.Join(cfg.baseline, "summary.json"), summary); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("baseline in %s has failed checks or digest mismatches", cfg.baseline)
	}
	return nil
}

// runFresh runs one seed-1 workload run in a new benchmark process and
// returns its record.
func runFresh(ctx context.Context, cfg config, workload string, traced bool, stdout, stderr io.Writer) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out, err := os.CreateTemp(cfg.baseline, ".record-*.json")
	if err != nil {
		return nil, err
	}
	out.Close()
	defer os.Remove(out.Name())
	flags := []string{"-workload", workload, "-seed", "1", "-seconds", strconv.Itoa(cfg.seconds)}
	if traced {
		flags = append(flags, "-trace", "1")
	}
	args := append([]string{"-root", cfg.root, "-json", out.Name()}, flags...)
	if traced && cfg.traceDir != "" {
		args = append(args, "-trace-dir", cfg.traceDir)
	}
	cmd := command(ctx, exe, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	// A run whose checks failed exits 1 but still writes its record.
	runErr := cmd.Run()
	var recs []*record
	b, err := os.ReadFile(out.Name())
	if err == nil {
		err = json.Unmarshal(b, &recs)
	}
	if err != nil || len(recs) != 1 {
		return nil, fmt.Errorf("%s: no record (%v): %v", workload, runErr, err)
	}
	recs[0].Env.Command = append([]string{"bench/run.sh"}, flags...)
	return recs[0], nil
}

// digestsMatch reports that every traced digest ("seed=N hash") equals
// the untraced digest of the same seed, and that at least one seed was
// compared when the workload has digests at all.
func digestsMatch(traced, untraced []string) bool {
	bySeed := map[string]string{}
	for _, d := range untraced {
		seed, _, _ := strings.Cut(d, " ")
		bySeed[seed] = d
	}
	compared := 0
	for _, d := range traced {
		seed, _, _ := strings.Cut(d, " ")
		if u, ok := bySeed[seed]; ok {
			if u != d {
				return false
			}
			compared++
		}
	}
	return compared > 0 || len(untraced) == 0
}
