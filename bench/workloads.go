package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs. run measures the
// shipped binaries as child processes and reports the end-to-end metrics;
// trace runs the same work in-process, through the functions those
// binaries call, and reports the layer counters behind the per-layer
// metrics. Both check the outputs they produce.
type workload struct {
	name  string
	why   string
	run   func(ctx context.Context, s *session, seed uint64) (*result, error)
	trace func(ctx context.Context, s *session, seed uint64, tr *tracer) (*result, error)
}

// The workloads, in the order "all" runs them. Their reasons are repeated
// in BENCHMARK.json and expanded in README.md.
var workloads = []workload{
	{
		name:  "paper-detect",
		why:   "full-fidelity fig12 sweep: 24 paper-scale runs through the per-node stack (sim heap, geo, phy, mac, crypto, node, core)",
		run:   runPaperDetect,
		trace: tracePaperDetect,
	},
	{
		name:  "figures-quick",
		why:   "all 19 quick runners on a fresh trial cache: per-job overhead, harness dispatch, cache writes and single-flight",
		run:   runFiguresQuick,
		trace: traceFiguresQuick,
	},
	{
		name:  "metro-1m",
		why:   "1M-node streamed metro run at K=1 then K=NumCPU: timing wheel, deploy streaming, shard barriers; no phy, mac or revoke",
		run:   runMetro,
		trace: traceMetro,
	},
	{
		name:  "revoke-uplink",
		why:   "closed-loop alerts and queries against the live revoked service: revnet, revoke.Sharded, packet, crypto; no simulation",
		run:   runRevokeUplink,
		trace: traceRevokeUplink,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func selectWorkloads(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s, all)", name, strings.Join(workloadNames(), ", "))
}

// metricDef declares one metric of BENCHMARK.json. bound is the share of
// the parent's median by which an end-to-end metric may worsen.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics an untraced run reports for every workload.
// wall_s is the median time of the workload's unit of work: a fig12
// regeneration, a quick regeneration, a K=NumCPU metro run, or one
// revocation request (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// cpuLayers are the layers CPU samples are charged to: the repository's
// internal packages, "other" for the remaining internal packages, "bench"
// for the benchmark's own code, and "runtime" for samples without any
// repository frame.
var cpuLayers = []string{
	"sim", "geo", "phy", "mac", "crypto", "packet", "node", "core",
	"revoke", "revnet", "harness", "cache", "deploy", "scenario", "rng",
	"metrics", "experiment", "analysis", "other", "bench", "runtime",
}

// perLayer are the metrics a traced run reports for every workload; a
// layer the workload does not reach reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{name: l + ".cpu_share", unit: "%", better: "lower"})
	}
	return append(defs,
		metricDef{name: "sim.events", unit: "count", better: "lower"},
		metricDef{name: "sim.cancel_ratio", unit: "ratio", better: "lower"},
		metricDef{name: "sim.max_pending", unit: "count", better: "lower"},
		metricDef{name: "phy.transmissions", unit: "count", better: "lower"},
		metricDef{name: "phy.deliveries", unit: "count", better: "lower"},
		metricDef{name: "phy.collision_ratio", unit: "ratio", better: "lower"},
		metricDef{name: "mac.useful_delivery_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "mac.backoffs", unit: "count", better: "lower"},
		metricDef{name: "node.probes", unit: "count", better: "lower"},
		metricDef{name: "node.reply_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "node.timeouts", unit: "count", better: "lower"},
		metricDef{name: "revoke.handled", unit: "count", better: "higher"},
		metricDef{name: "revoke.accepted_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "revoke.revocations", unit: "count", better: "higher"},
		metricDef{name: "revnet.conns", unit: "count", better: "higher"},
		metricDef{name: "revnet.frames_in", unit: "count", better: "higher"},
		metricDef{name: "revnet.retries", unit: "count", better: "lower"},
		metricDef{name: "revnet.errors", unit: "count", better: "lower"},
		metricDef{name: "harness.jobs", unit: "count", better: "higher"},
		metricDef{name: "harness.idle_share", unit: "ratio", better: "lower"},
		metricDef{name: "cache.hit_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "cache.flight_shares", unit: "count", better: "higher"},
		metricDef{name: "cache.bytes_written", unit: "B", better: "lower"},
		metricDef{name: "scenario.idle_share", unit: "ratio", better: "lower"},
		metricDef{name: "runtime.gc_cpu_share", unit: "%", better: "lower"},
		metricDef{name: "runtime.alloc_mb", unit: "MB", better: "lower"},
	)
}()

// sizes scales the workloads; the self-test runs them small.
type sizes struct {
	paperQuick  bool     // paper-detect regenerates fig12 at -quick
	quickFigs   []string // figures-quick runner IDs; nil runs every runner
	metroNodes  int64
	revokeEpoch int // requests one revocation server serves before a fresh one replaces it
}

var fullSizes = sizes{metroNodes: 1_000_000, revokeEpoch: 16384}

// result is what one workload run measured.
type result struct {
	attempted, failed int
	values            map[string]float64 // end-to-end metrics, or the traced run's layer counters
	extras            []metric           // further measurements, printed and recorded only
	digests           []string
	notes             []string
	checks            []string
	simEvents         uint64 // events fired in every traced unit, for sim.ns_per_event
}

func newResult() *result { return &result{values: map[string]float64{}} }

// check records a failed output check.
func (r *result) check(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

func (r *result) extra(name string, value float64, unit string) {
	r.extras = append(r.extras, metric{name, value, unit})
}

// metric is one named measurement.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one workload run as printed and written by -json.
type record struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Traced    bool     `json:"traced"`
	Env       envStamp `json:"env"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	RunS      float64  `json:"run_s"`
	Metrics   []metric `json:"metrics"`
	Extras    []metric `json:"extras,omitempty"`
	Digests   []string `json:"digests,omitempty"`
	Notes     []string `json:"notes,omitempty"`
	Checks    []string `json:"checks,omitempty"`
}

// session owns what every workload run shares: the built binaries, a
// temporary directory under the checkout, the window and the load size.
type session struct {
	root     string
	tmp      string
	bins     binaries
	window   time.Duration
	workers  int
	size     sizes
	traceDir string
}

// newSession builds the binaries into a fresh temporary directory under
// root/.bench_build; close removes it.
func newSession(ctx context.Context, root string, window time.Duration, size sizes) (*session, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	s := &session{root: root, tmp: tmp, window: window, workers: runtime.NumCPU(), size: size}
	if s.bins, err = buildBinaries(ctx, root, filepath.Join(tmp, "bin")); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *session) close() { os.RemoveAll(s.tmp) }

// scratch returns a fresh directory for one workload run.
func (s *session) scratch(name string) (string, error) {
	return os.MkdirTemp(s.tmp, name+"-")
}

// repeat runs unit(0), unit(1), ... until starting another unit would
// overrun the window, predicting that the next unit takes as long as the
// last. It always runs at least minUnits. Per-unit medians therefore do
// not depend on how many units fit.
func (s *session) repeat(ctx context.Context, minUnits int, unit func(i int) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; i < minUnits || time.Since(start)+last <= s.window; i++ {
		t0 := time.Now()
		if err := unit(i); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	return nil
}

// probeBatch is how many set-up probes a workload launches before each
// unit of work and once more after the last, so that its set-up samples
// spread over the run as its other measurements do.
const probeBatch = 5

// prober is a workload's set-up probe: a launch of one of its binaries
// that does so little work that start-up dominates its wall time.
type prober struct {
	bin   string
	args  []string
	walls []float64
}

// batch launches the probe probeBatch times; a failed launch fails a check.
func (p *prober) batch(ctx context.Context, res *result) error {
	for i := 0; i < probeBatch; i++ {
		c, err := runChild(ctx, p.bin, p.args...)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			res.check("set-up probe: %v", err)
			continue
		}
		p.walls = append(p.walls, c.wall.Seconds())
	}
	return nil
}

// measure runs one workload, untraced or traced, and assembles its record.
func (s *session) measure(ctx context.Context, w workload, seed uint64, traced bool) (*record, error) {
	start := time.Now()
	var (
		res    *result
		shares map[string]float64
		err    error
	)
	if traced {
		dir := s.traceDir
		if dir == "" {
			if dir, err = s.scratch("trace"); err != nil {
				return nil, err
			}
		}
		tr := newTracer(dir, w.name)
		res, err = w.trace(ctx, s, seed, tr)
		if ferr := tr.finish(ctx); err == nil {
			err = ferr
		}
		if err == nil {
			shares = tr.shares
			values, cpu := tr.runtimeValues()
			for k, v := range values {
				res.values[k] = v
			}
			if res.simEvents > 0 {
				res.extra("sim.ns_per_event", shares["sim"]/100*cpu*1e9/float64(res.simEvents), "ns")
			}
			res.extras = append(res.extras, tr.spanSummary()...)
		}
	} else {
		res, err = w.run(ctx, s, seed)
	}
	if err != nil {
		return nil, err
	}
	if res.failed > 0 {
		res.check("%d of %d operations failed", res.failed, res.attempted)
	}
	if res.attempted < 1 {
		res.check("no operation attempted")
	}
	for i := range res.extras {
		res.extras[i].Value = finite(res.extras[i].Value)
	}
	rec := &record{
		Workload:  w.name,
		Seed:      seed,
		Traced:    traced,
		Correct:   len(res.checks) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		RunS:      time.Since(start).Seconds(),
		Extras:    res.extras,
		Digests:   res.digests,
		Notes:     res.notes,
		Checks:    res.checks,
	}
	if !traced {
		for _, d := range endToEnd {
			v, ok := res.values[d.name]
			if !ok {
				return nil, fmt.Errorf("workload reported no %s", d.name)
			}
			rec.Metrics = append(rec.Metrics, metric{d.name, finite(v), d.unit})
		}
		return rec, nil
	}
	for _, d := range perLayer {
		v := res.values[d.name]
		if layer, ok := strings.CutSuffix(d.name, ".cpu_share"); ok {
			v = shares[layer]
		}
		rec.Metrics = append(rec.Metrics, metric{d.name, v, d.unit})
	}
	return rec, nil
}

// sortedNames returns the keys of m in order, for deterministic output.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// finite maps a value that failed units left undefined (a division by no
// samples) to 0; such a record is already incorrect.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
