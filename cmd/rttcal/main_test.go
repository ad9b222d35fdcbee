package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"beaconsec/internal/core"
)

func TestRunOutput(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-trials", "500", "-seed", "3"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"x_min", "x_max", "spread", "replay detection threshold", "500 exchanges"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunRejectsBadTrials(t *testing.T) {
	for _, trials := range []string{"0", "-1", "9223372036854775807", fmt.Sprint(core.MaxCalibrationTrials + 1)} {
		var b strings.Builder
		if err := run([]string{"-trials", trials}, &b); err == nil {
			t.Errorf("trials=%s accepted", trials)
		}
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-nonsense"}, &b); err == nil {
		t.Error("unknown flag accepted")
	}
}

// FuzzRun drives run with arbitrary -trials and -seed. No input may
// panic, a trial count outside [1, core.MaxCalibrationTrials] must be an
// error, and a valid one must measure exactly that many exchanges. Every
// frame of a calibration pair is a reception, so each run drives the
// radio medium's reception path. Valid counts above fuzzMaxTrials are
// skipped to keep each input fast.
func FuzzRun(f *testing.F) {
	const fuzzMaxTrials = 2000
	f.Add(500, uint64(3))
	f.Add(1, uint64(0))
	f.Add(fuzzMaxTrials, uint64(math.MaxUint64))
	f.Add(0, uint64(1))
	f.Add(-1, uint64(2))
	f.Add(math.MaxInt, uint64(4))
	f.Add(math.MinInt, uint64(5))
	f.Add(core.MaxCalibrationTrials+1, uint64(6))
	f.Fuzz(func(t *testing.T, trials int, seed uint64) {
		valid := trials >= 1 && trials <= core.MaxCalibrationTrials
		if valid && trials > fuzzMaxTrials {
			return
		}
		var b strings.Builder
		err := run([]string{"-trials", strconv.Itoa(trials), "-seed", strconv.FormatUint(seed, 10)}, &b)
		switch {
		case !valid && err == nil:
			t.Fatalf("trials=%d accepted", trials)
		case valid && err != nil:
			t.Fatalf("trials=%d seed=%d: %v", trials, seed, err)
		case valid && !strings.Contains(b.String(), fmt.Sprintf("over %d exchanges", trials)):
			t.Fatalf("trials=%d seed=%d: output does not report %d exchanges:\n%s", trials, seed, trials, b.String())
		}
	})
}
