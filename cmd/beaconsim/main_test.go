package main

import (
	"strings"
	"testing"
)

func smallArgs(extra ...string) []string {
	base := []string{"-n", "300", "-nb", "33", "-na", "3", "-seed", "2"}
	return append(base, extra...)
}

func TestRunSmallNetwork(t *testing.T) {
	var b strings.Builder
	if err := run(smallArgs("-p", "0.5", "-wormhole=false", "-collude=false"), &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"population", "N=300 Nb=33 Na=3",
		"revoked malicious", "detection rate",
		"localization", "radio",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunRejectsInvalidPopulation(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-n", "10", "-nb", "20"}, &b); err == nil {
		t.Error("Nb > N accepted")
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-bogus"}, &b); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestRunRejectsBadProbabilities feeds -p and -pd values outside [0,1]:
// each must come back as an error, never a panic or a finished run.
func TestRunRejectsBadProbabilities(t *testing.T) {
	for _, args := range [][]string{
		{"-p", "2"}, {"-p", "-1"}, {"-p", "Inf"}, {"-p", "NaN"}, {"-pd", "NaN"},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%v panicked: %v", args, r)
				}
			}()
			var b strings.Builder
			if err := run(smallArgs(args...), &b); err == nil {
				t.Errorf("%v accepted", args)
			}
		}()
	}
}

// TestRunCachedReplayMatches runs the same configuration cold and warm
// through -cache: the warm run must report a hit and print the same
// numbers (only the cache status line differs).
func TestRunCachedReplayMatches(t *testing.T) {
	dir := t.TempDir()
	runOnce := func() string {
		t.Helper()
		var b strings.Builder
		args := smallArgs("-p", "0.5", "-wormhole=false", "-collude=false",
			"-cache", "-cache-dir", dir)
		if err := run(args, &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	stripStatus := func(out string) string {
		var kept []string
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(line, "cache ") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}

	cold := runOnce()
	if !strings.Contains(cold, "cache                miss, stored") {
		t.Fatalf("cold run did not report a miss:\n%s", cold)
	}
	warm := runOnce()
	if !strings.Contains(warm, "cache                hit") {
		t.Fatalf("warm run did not report a hit:\n%s", warm)
	}
	if stripStatus(cold) != stripStatus(warm) {
		t.Fatalf("cached replay changed the report:\n%s\nvs\n%s", cold, warm)
	}

	// Any flag change must miss: same population, different seed.
	var b strings.Builder
	args := []string{"-n", "300", "-nb", "33", "-na", "3", "-seed", "3",
		"-p", "0.5", "-wormhole=false", "-collude=false", "-cache", "-cache-dir", dir}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "miss, stored") {
		t.Fatalf("seed change replayed a stale entry:\n%s", b.String())
	}
}

// TestRunDetectorFlag: -detector threads through to the run report, and
// an unregistered name fails fast naming the registered detectors.
func TestRunDetectorFlag(t *testing.T) {
	var b strings.Builder
	if err := run(smallArgs("-p", "0.5", "-wormhole=false", "-collude=false",
		"-detector", "ml{bias=20}"), &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "detector             ml{bias=20}") {
		t.Errorf("report does not name the detector:\n%s", b.String())
	}

	err := run(smallArgs("-detector", "bogus"), &strings.Builder{})
	if err == nil {
		t.Fatal("unknown detector accepted")
	}
	for _, want := range []string{`unknown detector "bogus"`, "paper"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestRunMetroReport exercises the -metro path end to end: the report
// carries the throughput and peak-memory lines (satellite contract), and
// a sharded invocation is identical to the one-shard one once the
// machine-dependent queue/events/memory lines are stripped — the exact
// comparison the CI parallel-identity leg performs on the built binary.
func TestRunMetroReport(t *testing.T) {
	stripMachine := func(out string) string {
		var kept []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "queue") ||
				strings.HasPrefix(line, "events") ||
				strings.HasPrefix(line, "memory") {
				continue
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	runMetroOnce := func(workers string) string {
		t.Helper()
		var b strings.Builder
		args := []string{"-metro", "-nodes", "20000", "-seed", "2", "-metro-workers", workers}
		if err := run(args, &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	one := runMetroOnce("1")
	for _, want := range []string{
		"population", "probes", "consistency check",
		"events/s", "GOMAXPROCS", "memory", "peak footprint",
		"x 1 shard(s)",
	} {
		if !strings.Contains(one, want) {
			t.Errorf("metro report missing %q:\n%s", want, one)
		}
	}

	sharded := runMetroOnce("3")
	if !strings.Contains(sharded, "x 3 shard(s)") {
		t.Errorf("sharded report does not name the shard count:\n%s", sharded)
	}
	if stripMachine(one) != stripMachine(sharded) {
		t.Fatalf("sharded metro report diverged from one shard:\n--- one shard\n%s\n--- sharded\n%s",
			one, sharded)
	}
}

// TestRunMetroReportsShardCount: the queue line reports the shards the
// kernel ran, not the -metro-workers value, which the population's
// streaming chunk count caps.
func TestRunMetroReportsShardCount(t *testing.T) {
	for _, tc := range []struct {
		nodes, workers string
		want           string
	}{
		{"1000", "4", "timing wheel x 1 shard(s)"},
		{"20000", "8", "timing wheel x 3 shard(s)"},
		{"20000", "0", "timing wheel x 1 shard(s)"},
	} {
		var b strings.Builder
		if err := run([]string{"-metro", "-nodes", tc.nodes, "-metro-workers", tc.workers}, &b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), "queue                "+tc.want) {
			t.Errorf("-nodes %s -metro-workers %s: queue line does not read %q:\n%s",
				tc.nodes, tc.workers, tc.want, b.String())
		}
	}
}

func TestRunMetroRejectsNegativeWorkers(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-metro", "-nodes", "1000", "-metro-workers", "-1"}, &b); err == nil {
		t.Error("negative worker count accepted")
	}
}
