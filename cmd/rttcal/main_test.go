package main

import (
	"fmt"
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
