package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"beaconsec/internal/cache"
	"beaconsec/internal/experiment"
	"beaconsec/internal/mac"
	"beaconsec/internal/node"
	"beaconsec/internal/phy"
	"beaconsec/internal/revoke"
	"beaconsec/internal/scenario"
	"beaconsec/internal/sim"
	"beaconsec/internal/textplot"
)

// figureDoc is the part of "figures -json" the benchmark reads.
type figureDoc struct {
	Cache   *cache.StatsSnapshot `json:"cache"`
	Results []experiment.Result  `json:"results"`
}

func readFigureDoc(path string) (*figureDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := new(figureDoc)
	if err := json.Unmarshal(b, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// detectGrid is the P axis and trial count of the fig12/fig13 sweep.
func detectGrid(quick bool) ([]float64, int) {
	if quick {
		return []float64{0.1, 0.3}, 1
	}
	return []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5}, 3
}

func runPaperDetect(ctx context.Context, s *session, seed uint64) (*result, error) {
	res := newResult()
	dir, err := s.scratch("paper-detect")
	if err != nil {
		return nil, err
	}
	if err := s.referenceCheck(ctx, dir, res); err != nil {
		return nil, err
	}
	quick := s.size.paperQuick
	ps, trials := detectGrid(quick)
	jobs := len(ps) * trials
	// Set-up: a figures process that starts and runs one quick RTT
	// calibration, the step fig12 takes before its sweep.
	setup := &prober{bin: s.bins.figures, args: []string{"-fig", "fig04", "-quick",
		"-workers", strconv.Itoa(s.workers), "-progress=false"}}
	var walls, rss []float64
	err = s.repeat(ctx, 1, func(i int) error {
		if err := setup.batch(ctx, res); err != nil {
			return err
		}
		unitSeed := seed + uint64(i)
		out := filepath.Join(dir, fmt.Sprintf("fig12-%d.json", i))
		args := []string{"-fig", "fig12", "-workers", strconv.Itoa(s.workers),
			"-seed", strconv.FormatUint(unitSeed, 10), "-json", out, "-progress=false"}
		if quick {
			args = append(args, "-quick")
		}
		res.attempted += jobs
		c, err := runChild(ctx, s.bins.figures, args...)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var doc *figureDoc
		if err == nil {
			doc, err = readFigureDoc(out)
		}
		if err == nil && len(doc.Results) != 1 {
			err = fmt.Errorf("%d results, want fig12 alone", len(doc.Results))
		}
		if err == nil {
			err = checkFig12(doc.Results[0], quick, unitSeed, s.root)
		}
		if err != nil {
			res.failed += jobs
			res.check("seed %d: %v", unitSeed, err)
			return nil
		}
		res.digests = append(res.digests, fmt.Sprintf("seed=%d %s", unitSeed, digest(doc.Results)))
		walls = append(walls, c.wall.Seconds())
		rss = append(rss, c.rssMB)
		return nil
	})
	if err == nil {
		err = setup.batch(ctx, res)
	}
	if err != nil {
		return nil, err
	}
	res.values["setup_s"] = median(setup.walls)
	res.values["wall_s"] = median(walls)
	res.values["throughput_per_s"] = float64(jobs) / median(walls)
	res.values["peak_rss_mb"] = median(rss)
	return res, nil
}

func tracePaperDetect(ctx context.Context, s *session, seed uint64, tr *tracer) (*result, error) {
	res := newResult()
	s.referenceCheckInProcess(res)
	quick := s.size.paperQuick
	ps, trials := detectGrid(quick)
	jobs := len(ps) * trials
	fig12, _ := experiment.ByID("fig12")
	if err := tr.start(); err != nil {
		return nil, err
	}
	root := tr.begin("paper-detect", 0)
	var walls []float64
	err := s.repeat(ctx, 1, func(i int) error {
		unitSeed := seed + uint64(i)
		res.attempted += jobs
		t0 := time.Now()
		results, err := runFigures(tr, root.id, []experiment.Runner{fig12},
			experiment.Options{Quick: quick, Seed: unitSeed, Workers: s.workers})
		wall := time.Since(t0).Seconds()
		var r experiment.Result
		if err == nil {
			r = results[0]
			err = checkFig12(r, quick, unitSeed, s.root)
		}
		if err != nil {
			res.failed += jobs
			res.check("seed %d: %v", unitSeed, err)
			return nil
		}
		res.digests = append(res.digests, fmt.Sprintf("seed=%d %s", unitSeed, digest([]experiment.Result{r})))
		res.simEvents += r.Metrics.Scenario.Sim.Events
		if len(walls) == 0 {
			var t tally
			t.add(r.Metrics)
			t.report(res, r.Metrics.Timing.WallSeconds, s.workers)
		}
		walls = append(walls, wall)
		return nil
	})
	root.end()
	if err != nil {
		return nil, err
	}
	res.extra("wall_s", median(walls), "s")
	return res, nil
}

// checkFig12 checks a fig12 result's shape and, at full fidelity and
// seed 1, its series against the committed results/fig12.csv.
func checkFig12(r experiment.Result, quick bool, seed uint64, root string) error {
	ps, trials := detectGrid(quick)
	if r.ID != "fig12" {
		return fmt.Errorf("result %q, want fig12", r.ID)
	}
	if len(r.Series) != 2 || r.Series[0].Label != "simulation" || r.Series[1].Label != "theory" {
		return errors.New("fig12 wants a simulation and a theory series")
	}
	for _, sr := range r.Series {
		if !slices.Equal(sr.X, ps) || len(sr.Y) != len(ps) {
			return fmt.Errorf("%s series has x %v, want %v", sr.Label, sr.X, ps)
		}
		for _, y := range sr.Y {
			if math.IsNaN(y) || y < 0 || y > 1 {
				return fmt.Errorf("%s rate %v outside [0,1]", sr.Label, y)
			}
		}
	}
	if r.Metrics == nil {
		return errors.New("fig12 carries no run metrics")
	}
	if runs := r.Metrics.Scenario.Runs; runs != len(ps)*trials || r.Metrics.Timing.Jobs != uint64(runs) {
		return fmt.Errorf("%d runs and %d jobs, want %d", runs, r.Metrics.Timing.Jobs, len(ps)*trials)
	}
	if seed != 1 || quick {
		return nil
	}
	return checkFig12CSV(root, r)
}

// checkFig12CSV compares every (series, x, y) row with results/fig12.csv.
func checkFig12CSV(root string, r experiment.Result) error {
	f, err := os.Open(filepath.Join(root, "results", "fig12.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err == nil && (len(rows) < 2 || len(rows[0]) != 3) {
		err = errors.New("want a series,x,y header and rows")
	}
	if err != nil {
		return fmt.Errorf("results/fig12.csv: %w", err)
	}
	var want []string
	for _, row := range rows[1:] {
		x, xerr := strconv.ParseFloat(row[1], 64)
		y, yerr := strconv.ParseFloat(row[2], 64)
		if xerr != nil || yerr != nil {
			return fmt.Errorf("results/fig12.csv: bad row %q", row)
		}
		want = append(want, fmt.Sprint(row[0], x, y))
	}
	var got []string
	for _, sr := range r.Series {
		for i := range sr.X {
			got = append(got, fmt.Sprint(sr.Label, sr.X[i], sr.Y[i]))
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		return errors.New("seed-1 fig12 series differ from results/fig12.csv")
	}
	return nil
}

// goldenFigure is the projection CI compares with the committed golden:
// jq '{seed, quick, results: [.results[] | {ID, Title, XLabel, YLabel, Series, Notes}]}'.
type goldenFigure struct {
	ID, Title, XLabel, YLabel string
	Series                    []textplot.Series
	Notes                     []string
}

// checkGolden compares the fig12 and fig13 results of a quick seed-1
// regeneration with results/golden/detect_quick_seed1.json.
func checkGolden(root string, results []experiment.Result) error {
	b, err := os.ReadFile(filepath.Join(root, "results", "golden", "detect_quick_seed1.json"))
	if err != nil {
		return err
	}
	var golden struct {
		Results []goldenFigure `json:"results"`
	}
	if err := json.Unmarshal(b, &golden); err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	var got []goldenFigure
	for _, r := range results {
		if r.ID == "fig12" || r.ID == "fig13" {
			got = append(got, goldenFigure{r.ID, r.Title, r.XLabel, r.YLabel, r.Series, r.Notes})
		}
	}
	want, _ := json.Marshal(golden.Results)
	have, _ := json.Marshal(got)
	if !bytes.Equal(want, have) {
		return errors.New("quick seed-1 fig12/fig13 differ from results/golden/detect_quick_seed1.json")
	}
	return nil
}

// referenceCheck regenerates the quick seed-1 detection figures with the
// shipped binary and compares them with the golden, so every run checks
// the paper pipeline against a committed reference whatever its seed.
func (s *session) referenceCheck(ctx context.Context, dir string, res *result) error {
	out := filepath.Join(dir, "reference.json")
	_, err := runChild(ctx, s.bins.figures, "-fig", "fig12,fig13", "-quick", "-seed", "1",
		"-workers", strconv.Itoa(s.workers), "-json", out, "-progress=false")
	if ctx.Err() != nil {
		return ctx.Err()
	}
	var doc *figureDoc
	if err == nil {
		doc, err = readFigureDoc(out)
	}
	if err == nil {
		err = checkGolden(s.root, doc.Results)
	}
	if err != nil {
		res.check("reference: %v", err)
	}
	return nil
}

// referenceCheckInProcess is referenceCheck for traced runs.
func (s *session) referenceCheckInProcess(res *result) {
	var runners []experiment.Runner
	for _, id := range []string{"fig12", "fig13"} {
		r, _ := experiment.ByID(id)
		runners = append(runners, r)
	}
	results, err := runFigures(nil, 0, runners, experiment.Options{Quick: true, Seed: 1, Workers: s.workers})
	if err == nil {
		err = checkGolden(s.root, results)
	}
	if err != nil {
		res.check("reference: %v", err)
	}
}

// digest hashes what a figure regeneration must reproduce exactly: every
// result's ID, series and notes, and its deterministic run counters. Notes
// quoting wall-clock time are left out.
func digest(results []experiment.Result) string {
	type entry struct {
		ID       string
		Series   []textplot.Series
		Notes    []string
		Scenario *scenario.Metrics `json:",omitempty"`
	}
	entries := make([]entry, len(results))
	for i, r := range results {
		entries[i] = entry{ID: r.ID, Series: r.Series}
		for _, n := range r.Notes {
			if !strings.Contains(n, "wall-clock") {
				entries[i].Notes = append(entries[i].Notes, n)
			}
		}
		if r.Metrics != nil {
			entries[i].Scenario = &r.Metrics.Scenario
		}
	}
	b, err := json.Marshal(entries)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// quickRunners are the runners figures-quick regenerates, and their IDs.
func (s *session) quickRunners() ([]experiment.Runner, []string) {
	rs := experiment.All()
	if s.size.quickFigs != nil {
		rs = nil
		for _, id := range s.size.quickFigs {
			r, _ := experiment.ByID(id)
			rs = append(rs, r)
		}
	}
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return rs, ids
}

func runFiguresQuick(ctx context.Context, s *session, seed uint64) (*result, error) {
	res := newResult()
	dir, err := s.scratch("figures-quick")
	if err != nil {
		return nil, err
	}
	if err := s.referenceCheck(ctx, dir, res); err != nil {
		return nil, err
	}
	// Set-up: a figures process that starts and renders one closed-form
	// figure, which costs almost nothing beyond start-up.
	setup := &prober{bin: s.bins.figures, args: []string{"-fig", "fig05", "-quick", "-progress=false"}}
	_, ids := s.quickRunners()
	var walls, rss []float64
	err = s.repeat(ctx, 1, func(i int) error {
		if err := setup.batch(ctx, res); err != nil {
			return err
		}
		unitSeed := seed + uint64(i)
		out := filepath.Join(dir, fmt.Sprintf("quick-%d.json", i))
		cacheDir := filepath.Join(dir, fmt.Sprintf("cache-%d", i))
		defer os.RemoveAll(cacheDir)
		args := []string{"-quick", "-workers", strconv.Itoa(s.workers), "-cache", "-cache-dir", cacheDir,
			"-seed", strconv.FormatUint(unitSeed, 10), "-json", out, "-progress=false"}
		if s.size.quickFigs != nil {
			args = append(args, "-fig", strings.Join(ids, ","))
		}
		res.attempted += len(ids)
		c, err := runChild(ctx, s.bins.figures, args...)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var doc *figureDoc
		if err == nil {
			doc, err = readFigureDoc(out)
		}
		if err == nil {
			err = checkQuick(doc, ids, unitSeed, s.root)
		}
		if err != nil {
			res.failed += len(ids)
			res.check("seed %d: %v", unitSeed, err)
			return nil
		}
		res.digests = append(res.digests, fmt.Sprintf("seed=%d %s", unitSeed, digest(doc.Results)))
		walls = append(walls, c.wall.Seconds())
		rss = append(rss, c.rssMB)
		return nil
	})
	if err == nil {
		err = setup.batch(ctx, res)
	}
	if err != nil {
		return nil, err
	}
	res.values["setup_s"] = median(setup.walls)
	res.values["wall_s"] = median(walls)
	res.values["throughput_per_s"] = float64(len(ids)) / median(walls)
	res.values["peak_rss_mb"] = median(rss)
	return res, nil
}

func traceFiguresQuick(ctx context.Context, s *session, seed uint64, tr *tracer) (*result, error) {
	res := newResult()
	s.referenceCheckInProcess(res)
	dir, err := s.scratch("figures-quick")
	if err != nil {
		return nil, err
	}
	runners, ids := s.quickRunners()
	if err := tr.start(); err != nil {
		return nil, err
	}
	root := tr.begin("figures-quick", 0)
	var walls []float64
	err = s.repeat(ctx, 1, func(i int) error {
		unitSeed := seed + uint64(i)
		cacheDir := filepath.Join(dir, fmt.Sprintf("cache-%d", i))
		defer os.RemoveAll(cacheDir)
		res.attempted += len(ids)
		t0 := time.Now()
		c, err := cache.New(cache.Config{Dir: cacheDir})
		var results []experiment.Result
		if err == nil {
			results, err = runFigures(tr, root.id, runners,
				experiment.Options{Quick: true, Seed: unitSeed, Workers: s.workers, Cache: c})
		}
		wall := time.Since(t0).Seconds()
		var stats cache.StatsSnapshot
		if err == nil {
			stats = c.Stats()
			err = checkQuick(&figureDoc{Cache: &stats, Results: results}, ids, unitSeed, s.root)
		}
		if err != nil {
			res.failed += len(ids)
			res.check("seed %d: %v", unitSeed, err)
			return nil
		}
		res.digests = append(res.digests, fmt.Sprintf("seed=%d %s", unitSeed, digest(results)))
		for _, r := range results {
			if r.Metrics != nil {
				res.simEvents += r.Metrics.Scenario.Sim.Events
			}
		}
		if len(walls) == 0 {
			var t tally
			for _, r := range results {
				t.add(r.Metrics)
			}
			t.report(res, wall, s.workers)
			res.values["cache.hit_ratio"] = stats.HitRate()
			res.values["cache.flight_shares"] = float64(stats.FlightShares)
			res.values["cache.bytes_written"] = float64(stats.BytesWritten)
		}
		walls = append(walls, wall)
		return nil
	})
	root.end()
	if err != nil {
		return nil, err
	}
	res.extra("wall_s", median(walls), "s")
	return res, nil
}

// runFigures runs the runners on a pool of opts.Workers, as cmd/figures
// does, with one span per runner when tr is not nil.
func runFigures(tr *tracer, parent uint64, runners []experiment.Runner, opts experiment.Options) ([]experiment.Result, error) {
	results := make([]experiment.Result, len(runners))
	errs := make([]error, len(runners))
	sem := make(chan struct{}, max(1, min(opts.Workers, len(runners))))
	var wg sync.WaitGroup
	for i, r := range runners {
		wg.Add(1)
		go func(i int, r experiment.Runner) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sp := tr.begin("experiment."+r.ID, parent)
			results[i], errs[i] = r.Run(opts)
			sp.end()
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", runners[i].ID, err)
		}
	}
	return results, nil
}

// checkQuick checks one quick regeneration: every runner's result in
// order, a cache that stored every miss without corrupt entries or write
// errors, and at seed 1 the golden detection figures.
func checkQuick(doc *figureDoc, ids []string, seed uint64, root string) error {
	if len(doc.Results) != len(ids) {
		return fmt.Errorf("%d results, want %d", len(doc.Results), len(ids))
	}
	for i, r := range doc.Results {
		if r.ID != ids[i] || len(r.Series) == 0 {
			return fmt.Errorf("result %d is %q with %d series, want %s", i, r.ID, len(r.Series), ids[i])
		}
	}
	c := doc.Cache
	if c == nil {
		return errors.New("no cache counters")
	}
	if c.Misses != c.Stores || c.CorruptEntries != 0 || c.WriteErrors != 0 {
		return fmt.Errorf("cache: %d misses, %d stores, %d corrupt entries, %d write errors",
			c.Misses, c.Stores, c.CorruptEntries, c.WriteErrors)
	}
	if seed == 1 {
		return checkGolden(root, doc.Results)
	}
	return nil
}

// tally sums the deterministic layer counters of simulation runs.
type tally struct {
	sim      sim.Stats
	radio    phy.Stats
	link     mac.Stats
	probes   node.ProbeStats
	revoke   revoke.Stats
	jobs     uint64
	jobBusyS float64
}

func (t *tally) add(m *experiment.RunMetrics) {
	if m == nil {
		return
	}
	t.sim.Merge(m.Scenario.Sim)
	t.radio.Merge(m.Scenario.Radio)
	t.link.Merge(m.Scenario.Link)
	t.probes.Merge(m.Scenario.Probes)
	t.revoke.Merge(m.Scenario.Revocation.Base)
	t.jobs += m.Timing.Jobs
	if m.Timing.JobSeconds != nil {
		t.jobBusyS += m.Timing.JobSeconds.Sum
	}
}

// report sets the per-layer counters and the mean harness job time; wall
// is the unit's wall time, over which harness workers could have been busy.
func (t *tally) report(res *result, wall float64, workers int) {
	v := res.values
	v["sim.events"] = float64(t.sim.Events)
	v["sim.cancel_ratio"] = ratio(t.sim.Cancelled, t.sim.Scheduled)
	v["sim.max_pending"] = float64(t.sim.MaxPending)
	v["phy.transmissions"] = float64(t.radio.Transmissions)
	v["phy.deliveries"] = float64(t.radio.Deliveries)
	v["phy.collision_ratio"] = ratio(t.radio.Collisions, t.radio.Deliveries+t.radio.Collisions)
	v["mac.useful_delivery_ratio"] = ratio(t.link.Delivered, t.radio.Deliveries)
	v["mac.backoffs"] = float64(t.link.Backoffs)
	v["node.probes"] = float64(t.probes.Probes)
	v["node.reply_ratio"] = ratio(t.probes.Replies, t.probes.Probes)
	v["node.timeouts"] = float64(t.probes.Timeouts)
	v["revoke.handled"] = float64(t.revoke.Handled)
	v["revoke.accepted_ratio"] = ratio(t.revoke.Accepted, t.revoke.Handled)
	v["revoke.revocations"] = float64(t.revoke.Revocations)
	v["harness.jobs"] = float64(t.jobs)
	if t.jobs > 0 && wall > 0 {
		v["harness.idle_share"] = 1 - t.jobBusyS/(wall*float64(workers))
		res.extra("harness.job_s_mean", t.jobBusyS/float64(t.jobs), "s")
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
