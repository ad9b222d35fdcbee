package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records the spans and the CPU profile of one traced workload
// run. Spans stay in memory until finish writes them to
// DIR/<workload>.spans.json; the profile goes to DIR/<workload>.cpu.pprof.
type tracer struct {
	dir, workload string

	origin  time.Time
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []span
	profile *os.File
	before  []metrics.Sample
	after   []metrics.Sample

	shares map[string]float64 // CPU share per layer, in percent, set by finish
}

// span is one timed call into a layer. Start and End are nanoseconds since
// the traced run began; Parent is 0 for the workload's root span. Request
// spans name their session as Parent, so one session's spans share its id.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func newTracer(dir, workload string) *tracer {
	return &tracer{dir: dir, workload: workload}
}

// runtimeSamples are read before and after the profiled work.
var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// start begins the CPU profile. A traced workload calls it once its
// inputs and reference checks are ready, so only the measured work is
// profiled.
func (t *tracer) start() error {
	f, err := os.Create(filepath.Join(t.dir, t.workload+".cpu.pprof"))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	t.profile = f
	t.before = readRuntime()
	t.origin = time.Now()
	return nil
}

// spanRef is an open span; end closes it.
type spanRef struct {
	t      *tracer
	name   string
	id     uint64
	parent uint64
	start  time.Time
}

// begin opens a span under parent (0 for a root span). On a nil tracer
// it records nothing.
func (t *tracer) begin(name string, parent uint64) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{t: t, name: name, id: t.nextID.Add(1), parent: parent, start: time.Now()}
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	end := time.Now()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{
		Name:   s.name,
		ID:     s.id,
		Parent: s.parent,
		Start:  s.start.Sub(s.t.origin).Nanoseconds(),
		End:    end.Sub(s.t.origin).Nanoseconds(),
	})
	s.t.mu.Unlock()
}

// stop ends the profile; work after it, such as checks, is not measured.
func (t *tracer) stop() {
	if t.profile != nil && t.after == nil {
		pprof.StopCPUProfile()
		t.after = readRuntime()
	}
}

// finish stops the profile, writes the spans and charges the profile's
// samples to layers.
func (t *tracer) finish(ctx context.Context) error {
	if t.profile == nil {
		return errors.New("traced run never started its profile")
	}
	t.stop()
	if err := t.profile.Close(); err != nil {
		return err
	}
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	if err := writeSpans(filepath.Join(t.dir, t.workload+".spans.json"), spans); err != nil {
		return err
	}
	shares, err := attribute(ctx, t.profile.Name())
	if err != nil {
		return err
	}
	t.shares = shares
	return nil
}

// runtimeValues derives the runtime layer's metrics from the samples
// taken around the profiled work, and returns the CPU seconds it used.
func (t *tracer) runtimeValues() (map[string]float64, float64) {
	d := make([]float64, len(runtimeSamples))
	for i := range runtimeSamples {
		switch t.before[i].Value.Kind() {
		case metrics.KindFloat64:
			d[i] = t.after[i].Value.Float64() - t.before[i].Value.Float64()
		case metrics.KindUint64:
			d[i] = float64(t.after[i].Value.Uint64() - t.before[i].Value.Uint64())
		}
	}
	gc, idle, total, allocs := d[0], d[1], d[2], d[3]
	v := map[string]float64{"runtime.alloc_mb": allocs / 1e6}
	used := total - idle
	if used > 0 {
		v["runtime.gc_cpu_share"] = 100 * gc / used
	}
	return v, used
}

// spanSummary reports, per span name, how many spans there were, their
// total duration and their self time: the duration not covered by child
// spans.
func (t *tracer) spanSummary() []metric {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type agg struct {
		n           int
		total, self float64
	}
	by := map[string]*agg{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.total += float64(s.End-s.Start) / 1e9
		a.self += float64(s.End-s.Start-covered(children[s.ID])) / 1e9
	}
	var out []metric
	for _, name := range sortedNames(by) {
		a := by[name]
		out = append(out,
			metric{"span." + name + ".count", float64(a.n), "count"},
			metric{"span." + name + ".total_s", a.total, "s"},
			metric{"span." + name + ".self_s", a.self, "s"})
	}
	return out
}

// covered returns the nanoseconds the union of the spans covers.
func covered(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64
	for _, s := range spans {
		start := s.Start
		if start < end {
			start = end
		}
		if s.End > start {
			total += s.End - start
			end = s.End
		}
	}
	return total
}

// attribute reads the profile through "go tool pprof -traces" and returns
// the share of CPU samples, in percent, charged to each layer.
func attribute(ctx context.Context, profile string) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.Bytes())
	}
	return layerShares(out)
}

// layerShares parses "go tool pprof -traces" output. Each sample is
// charged to its innermost repository frame: the beaconsec/internal/<layer>
// package, or "bench" for the benchmark's own code. Standard-library
// frames therefore count toward their caller, and samples with no
// repository frame count as "runtime".
func layerShares(out []byte) (map[string]float64, error) {
	known := map[string]bool{}
	for _, l := range cpuLayers {
		known[l] = true
	}
	cost := map[string]float64{}
	var total float64
	var value float64
	layer := ""
	inBlock := false
	flush := func() {
		if !inBlock {
			return
		}
		if layer == "" {
			layer = "runtime"
		}
		cost[layer] += value
		total += value
		inBlock, layer = false, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		frame := fields[0]
		if !inBlock && strings.HasPrefix(line, " ") && len(fields) >= 2 {
			v, err := parseDuration(fields[0])
			if err != nil {
				continue // a header line
			}
			value, inBlock = v, true
			frame = fields[1]
		} else if !inBlock {
			continue
		}
		if layer == "" {
			layer = frameLayer(frame, known)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	shares := map[string]float64{}
	if total == 0 {
		return shares, nil
	}
	for l, c := range cost {
		shares[l] = 100 * c / total
	}
	return shares, nil
}

// frameLayer names the layer a profile frame belongs to, or "" for a
// frame outside the repository.
func frameLayer(frame string, known map[string]bool) string {
	if pkg, ok := strings.CutPrefix(frame, "beaconsec/internal/"); ok {
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if known[pkg] {
			return pkg
		}
		return "other"
	}
	if strings.HasPrefix(frame, "main.") {
		return "bench"
	}
	return ""
}

// parseDuration reads a pprof sample value such as "10ms" or "1.20s".
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("not a duration: %q", s)
}

// writeSpans writes the spans as a JSON array, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("[")
	for i, s := range spans {
		if i > 0 {
			w.WriteString(",")
		}
		b, _ := json.Marshal(s)
		w.WriteString("\n")
		w.Write(b)
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
