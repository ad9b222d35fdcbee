package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// binaries are the shipped programs the untraced workloads run.
type binaries struct {
	figures, beaconsim, revoked string
}

// buildBinaries builds the three commands from the checkout at root into
// dir. The build is not timed.
func buildBinaries(ctx context.Context, root, dir string) (binaries, error) {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/figures", "./cmd/beaconsim", "./cmd/revoked")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("go build in %s: %v\n%s", root, err, out)
	}
	return binaries{
		figures:   filepath.Join(dir, "figures"),
		beaconsim: filepath.Join(dir, "beaconsim"),
		revoked:   filepath.Join(dir, "revoked"),
	}, nil
}

// child is one finished child process: wall time from exec to exit, CPU
// time, peak resident set and standard output.
type child struct {
	wall   time.Duration
	cpu    time.Duration
	rssMB  float64
	stdout []byte
}

// command prepares a child that dies with the benchmark: ctx cancellation
// (SIGINT) kills it, and so does the benchmark's own death on Linux.
func command(ctx context.Context, bin string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, bin, args...)
	dieWithParent(cmd)
	return cmd
}

// childTimeout bounds one child run, so a hung program fails its check
// well inside the three minutes a benchmark run may take.
const childTimeout = 2 * time.Minute

// runChild runs bin to completion and measures it.
func runChild(ctx context.Context, bin string, args ...string) (child, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := command(ctx, bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	c := child{wall: time.Since(start), stdout: stdout.Bytes()}
	if cmd.ProcessState != nil {
		c.cpu, c.rssMB = usage(cmd.ProcessState)
	}
	if err != nil {
		return c, fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "),
			err, strings.TrimSpace(stderr.String()))
	}
	return c, nil
}

// envStamp records where and how a run was measured.
type envStamp struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	CPUModel   string   `json:"cpu_model"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Command    []string `json:"command"`
}

// captureEnv stamps the environment. The recorded command line leaves out
// -root, the checkout's absolute path, which run.sh always passes.
func captureEnv(root string, args []string) envStamp {
	var cmdline []string
	for i := 0; i < len(args); i++ {
		switch a := args[i]; {
		case a == "-root" || a == "--root":
			i++
		case strings.HasPrefix(a, "-root=") || strings.HasPrefix(a, "--root="):
		default:
			cmdline = append(cmdline, a)
		}
	}
	return envStamp{
		Commit:     commit(root),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Command:    append([]string{"bench/run.sh"}, cmdline...),
	}
}

// commit names the checkout's commit, with "-dirty" when tracked files
// differ from it, or "unknown" outside a git repository.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	c := strings.TrimSpace(string(out))
	if exec.Command("git", "-C", root, "diff", "--quiet", "HEAD", "--").Run() != nil {
		c += "-dirty"
	}
	return c
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
