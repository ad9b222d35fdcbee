//go:build !linux

package main

import (
	"os"
	"os/exec"
	"time"
)

// Outside Linux children still die on SIGINT through their context, but
// not when the benchmark itself is killed, and no RSS or self CPU time is
// measured.
func dieWithParent(*exec.Cmd) {}

func usage(ps *os.ProcessState) (time.Duration, float64) {
	return ps.UserTime() + ps.SystemTime(), 0
}

func selfCPU() time.Duration { return 0 }
