// Command bench is the repository benchmark. It builds cmd/figures,
// cmd/beaconsim and cmd/revoked from the checkout, runs each workload
// against those binaries as child processes, checks their outputs, and
// prints the end-to-end metrics. With -trace 1 it runs the same workloads
// in-process instead, through the functions the binaries call, under a CPU
// profile and with spans around every call into a layer, and prints the
// per-layer metrics.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1]
//	                  [-trace-dir DIR] [-json FILE]
//	bash bench/run.sh -baseline DIR [-seconds S]
//
// Every metric prints as one line "workload metric value unit"; the last
// line of standard output is one JSON object per workload with the keys
// correct, attempted, failed and metrics. The exit status is 0 only when
// every output check passed. bench/README.md defines the workloads and
// metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// config is the parsed command line.
type config struct {
	root     string
	workload string
	seed     uint64
	seconds  int
	trace    bool
	traceDir string
	jsonOut  string
	baseline string
	args     []string
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	cfg := config{args: args}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.root, "root", ".", "repository checkout to build and measure")
	fs.StringVar(&cfg.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the workload inputs derive from")
	fs.IntVar(&cfg.seconds, "seconds", 25, "measurement window per workload, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced in-process variant and prints per-layer metrics")
	fs.StringVar(&cfg.traceDir, "trace-dir", "", "keep spans and CPU profiles of traced runs in DIR")
	fs.StringVar(&cfg.jsonOut, "json", "", "write the full run records to FILE")
	fs.StringVar(&cfg.baseline, "baseline", "", "record a baseline in DIR: five untraced seed-1 runs and one traced run per workload")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, err := selectWorkloads(cfg.workload); err != nil {
		return cfg, err
	}
	if cfg.seconds < 1 || cfg.seconds > 3600 {
		return cfg, fmt.Errorf("-seconds %d outside [1, 3600]", cfg.seconds)
	}
	switch *trace {
	case 0:
	case 1:
		cfg.trace = true
	default:
		return cfg, fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	return cfg, nil
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if cfg.baseline != "" {
		if err := writeBaseline(ctx, cfg, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	s, err := newSession(ctx, cfg.root, time.Duration(cfg.seconds)*time.Second, fullSizes)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer s.close()
	if cfg.traceDir != "" {
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		s.traceDir = cfg.traceDir
	}

	ws, _ := selectWorkloads(cfg.workload)
	env := captureEnv(cfg.root, cfg.args)
	var records []*record
	code := 0
	for _, w := range ws {
		rec, err := s.measure(ctx, w, cfg.seed, cfg.trace)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		rec.Env = env
		printRecord(stdout, rec)
		if !rec.Correct {
			code = 1
		}
		records = append(records, rec)
	}
	if cfg.jsonOut != "" {
		if err := writeJSON(cfg.jsonOut, records); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// printRecord writes one line per metric and further measurement, the
// record's digests, notes and failed checks, and the result object the
// last line of a run must be.
func printRecord(w io.Writer, rec *record) {
	for _, m := range slices.Concat(rec.Metrics, rec.Extras) {
		fmt.Fprintf(w, "%s %s %s %s\n", rec.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	for _, d := range rec.Digests {
		fmt.Fprintf(w, "%s digest %s\n", rec.Workload, d)
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "%s note: %s\n", rec.Workload, n)
	}
	for _, c := range rec.Checks {
		fmt.Fprintf(w, "%s CHECK FAILED: %s\n", rec.Workload, c)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(rec.Metrics))
	for _, m := range rec.Metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	fmt.Fprintln(w, string(line))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
