// Command figures regenerates the paper's evaluation figures (4–14) and
// the extension experiments, printing ASCII plots and optionally writing
// CSV + text renderings to an output directory.
//
// Simulation-backed figures run their trials on the shared harness's
// worker pool, and independent figures run concurrently; -workers bounds
// both. Output is deterministic for any worker count: plots print in
// figure order and every trial seed derives from -seed alone.
//
// Usage:
//
//	figures [-fig all|fig04,fig12,...] [-quick] [-seed N] [-out DIR]
//	        [-workers N] [-progress] [-json FILE]
//	        [-detectors mahalanobis,ml,paper]
//	        [-cache] [-cache-dir DIR] [-cache-clear]
//	        [-cpuprofile FILE] [-memprofile FILE]
//
// -fig names the figures to regenerate. An unknown ID fails before
// anything runs: no directory is created or cleared and no profile is
// started.
//
// -detectors names the detectors the bake-off (extra-bakeoff) compares,
// from mahalanobis, ml and paper (default: all three). An unknown or
// repeated name fails before anything runs.
//
// -width and -height size each plot in characters: each at most 4096,
// checked before anything runs; a plot smaller than 8×4 is raised to it.
//
// -json writes every figure result — series, notes, and the aggregate
// ScenarioMetrics (per-phase timings, packet/collision/filter counters)
// — as one machine-readable JSON document ("-" for stdout). -cpuprofile
// and -memprofile write pprof profiles of the whole regeneration.
//
// -cache memoizes simulation trials content-addressed under -cache-dir,
// so a re-run recomputes only trials whose config, seed, or code salt
// changed; figure output is byte-identical either way. -cache-clear
// deletes the cache directory first (a from-scratch cold run).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"

	"beaconsec/internal/cache"
	"beaconsec/internal/core"
	"beaconsec/internal/experiment"
	"beaconsec/internal/harness"
	"beaconsec/internal/metrics"
)

// maxPlotSize bounds -width and -height. A plot is rendered as
// width×height bytes only after every figure has been computed, so a
// larger value must fail first, not then.
const maxPlotSize = 4096

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	figs := fs.String("fig", "all", "comma-separated figure IDs, or 'all'")
	detectors := fs.String("detectors", "", "comma-separated detector names for the bake-off runner, from "+strings.Join(core.DetectorNames(), ", ")+" (default: all)")
	quick := fs.Bool("quick", false, "reduced trials and network size")
	seed := fs.Uint64("seed", 1, "random seed")
	outDir := fs.String("out", "", "directory for CSV and text output (optional)")
	width := fs.Int("width", 72, fmt.Sprintf("plot width in characters (at most %d)", maxPlotSize))
	height := fs.Int("height", 20, fmt.Sprintf("plot height in characters (at most %d)", maxPlotSize))
	workers := fs.Int("workers", 0, "trial and figure concurrency (0 = all CPUs)")
	progress := fs.Bool("progress", true, "print per-figure trial progress to stderr")
	jsonOut := fs.String("json", "", "write results as JSON to FILE ('-' for stdout)")
	useCache := fs.Bool("cache", false, "memoize simulation trials on disk (see -cache-dir)")
	cacheDir := fs.String("cache-dir", filepath.Join("results", "cache"), "trial cache directory")
	cacheClear := fs.Bool("cache-clear", false, "delete the trial cache before running")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to FILE")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to FILE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *width > maxPlotSize {
		return fmt.Errorf("-width %d exceeds %d", *width, maxPlotSize)
	}
	if *height > maxPlotSize {
		return fmt.Errorf("-height %d exceeds %d", *height, maxPlotSize)
	}
	var detectorNames []string
	if *detectors != "" {
		names, err := core.ParseDetectorList(*detectors)
		if err != nil {
			return err
		}
		detectorNames = names
	}
	var runners []experiment.Runner
	if *figs == "all" {
		runners = experiment.All()
	} else {
		for _, id := range strings.Split(*figs, ",") {
			r, ok := experiment.ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown figure %q (known: %s)", id, knownIDs())
			}
			runners = append(runners, r)
		}
	}

	// Validate every destination directory up front: an unwritable -out
	// or -cache-dir must fail in milliseconds with a clear message, not
	// after minutes of simulation.
	if *outDir != "" {
		if err := ensureWritableDir(*outDir); err != nil {
			return fmt.Errorf("output dir: %w", err)
		}
	}
	if *cacheClear {
		if err := os.RemoveAll(*cacheDir); err != nil {
			return fmt.Errorf("cache dir: clear: %w", err)
		}
	}
	var trialCache *cache.Cache
	if *useCache {
		c, cerr := cache.New(cache.Config{Dir: *cacheDir})
		if cerr != nil {
			return fmt.Errorf("cache dir: %w", cerr)
		}
		trialCache = c
	}

	// Both profiles are flushed by deferred closers so they survive
	// error paths (a failing figure still yields a usable profile), and
	// flush failures surface as run's own error instead of a stderr
	// note with a zero exit status.
	if *cpuProfile != "" {
		f, ferr := os.Create(*cpuProfile)
		if ferr != nil {
			return ferr
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("cpuprofile: %w", cerr)
			}
		}()
		if perr := pprof.StartCPUProfile(f); perr != nil {
			return perr
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			if werr := writeHeapProfile(*memProfile); werr != nil && err == nil {
				err = fmt.Errorf("memprofile: %w", werr)
			}
		}()
	}

	opts := experiment.Options{Quick: *quick, Seed: *seed, Workers: *workers, Cache: trialCache,
		Detectors: detectorNames}
	results, err := runAll(runners, opts, *progress)
	if err != nil {
		return err
	}

	for i := range runners {
		res := results[i]
		plot := res.Plot()
		rendered := plot.Render(*width, *height)
		fmt.Fprintln(out, rendered)
		for _, n := range res.Notes {
			fmt.Fprintf(out, "  note: %s\n", n)
		}
		fmt.Fprintln(out)
		if *outDir != "" {
			if err := os.WriteFile(filepath.Join(*outDir, res.ID+".csv"), []byte(plot.CSV()), 0o644); err != nil {
				return err
			}
			txt := rendered + "\n" + strings.Join(res.Notes, "\n") + "\n"
			if err := os.WriteFile(filepath.Join(*outDir, res.ID+".txt"), []byte(txt), 0o644); err != nil {
				return err
			}
		}
	}

	var cacheStats *cache.StatsSnapshot
	if trialCache != nil {
		s := trialCache.Stats()
		cacheStats = &s
		fmt.Fprintf(out, "cache: %d hits, %d misses (%.1f%% hit rate), %d stored, %.1f MB read, %.1f MB written\n",
			s.Hits, s.Misses, 100*s.HitRate(), s.Stores,
			float64(s.BytesRead)/1e6, float64(s.BytesWritten)/1e6)
	}

	if *jsonOut != "" {
		doc := jsonDoc{Seed: *seed, Quick: *quick, Env: metrics.CaptureEnv(), Cache: cacheStats, Results: results}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if *jsonOut == "-" {
			_, err = out.Write(b)
		} else {
			err = os.WriteFile(*jsonOut, b, 0o644)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeHeapProfile snapshots the heap to path, reporting create, write,
// and close errors alike (a heap profile that failed to flush is worse
// than none: it truncates silently and pprof misparses it).
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle allocations so the heap profile is stable
	werr := pprof.WriteHeapProfile(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// jsonDoc is the -json export: the run parameters, the machine they ran
// on, the trial-cache tally (nil without -cache), plus every figure
// result, including each simulation-backed figure's aggregate metrics.
type jsonDoc struct {
	Seed    uint64               `json:"seed"`
	Quick   bool                 `json:"quick"`
	Env     metrics.Env          `json:"env"`
	Cache   *cache.StatsSnapshot `json:"cache,omitempty"`
	Results []experiment.Result  `json:"results"`
}

// ensureWritableDir creates dir if needed and proves it is writable by
// creating and removing a probe file; MkdirAll alone reports success on
// an existing read-only directory.
func ensureWritableDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".writable-*")
	if err != nil {
		return fmt.Errorf("%s is not writable: %w", dir, err)
	}
	name := f.Name()
	f.Close()
	return os.Remove(name)
}

// runAll executes the runners on a bounded pool (figure-level
// concurrency on top of each figure's own trial parallelism) and returns
// their results in input order. The first failure is returned after all
// in-flight figures finish.
func runAll(runners []experiment.Runner, opts experiment.Options, progress bool) ([]experiment.Result, error) {
	figWorkers := opts.Workers
	if figWorkers <= 0 {
		figWorkers = runtime.GOMAXPROCS(0)
	}
	if figWorkers > len(runners) {
		figWorkers = len(runners)
	}

	results := make([]experiment.Result, len(runners))
	errs := make([]error, len(runners))
	sem := make(chan struct{}, figWorkers)
	var wg sync.WaitGroup
	for i, r := range runners {
		wg.Add(1)
		go func(i int, r experiment.Runner) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			o := opts
			if progress {
				o.Progress = func(p harness.Progress) {
					fmt.Fprintf(os.Stderr, "figures: %s %d/%d trials (%.1fs)\n",
						r.ID, p.Done, p.Total, p.Elapsed.Seconds())
				}
			}
			results[i], errs[i] = r.Run(o)
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

func knownIDs() string {
	var ids []string
	for _, r := range experiment.All() {
		ids = append(ids, r.ID)
	}
	return strings.Join(ids, ", ")
}
