package main

import (
	"os"
	"os/exec"
	"syscall"
	"time"
)

func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// usage returns a finished process's CPU time and peak resident set in MB
// (Linux reports ru_maxrss in KiB).
func usage(ps *os.ProcessState) (time.Duration, float64) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return ps.UserTime() + ps.SystemTime(), 0
	}
	return ps.UserTime() + ps.SystemTime(), float64(ru.Maxrss) * 1024 / 1e6
}

// selfCPU returns the benchmark process's CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
