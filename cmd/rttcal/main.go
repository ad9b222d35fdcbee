// Command rttcal runs the round-trip-time calibration of the paper's
// Figure 4: it measures RTT = (t4-t1) - (t3-t2) over many request/reply
// exchanges on the simulated MICA2-class radio stack and prints the
// empirical distribution, x_min, x_max, and the derived local-replay
// detection threshold.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"beaconsec/internal/core"
	"beaconsec/internal/phy"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rttcal:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rttcal", flag.ContinueOnError)
	trials := fs.Int("trials", 10000, "request/reply exchanges to measure")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cal, err := core.CalibrateRTTWorkers(*trials, *seed, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "RTT calibration over %d exchanges (CPU @ 7.3728 MHz, %d cycles/bit)\n\n",
		cal.Len(), phy.CyclesPerBit)
	fmt.Fprintln(out, "  quantile      RTT (cycles)")
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		fmt.Fprintf(out, "  %6.2f %17.0f\n", q, cal.Quantile(q))
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "x_min  = %8.0f cycles (max x with F(x)=0)\n", cal.XMin())
	fmt.Fprintf(out, "x_max  = %8.0f cycles (min x with F(x)=1)\n", cal.XMax())
	fmt.Fprintf(out, "spread = %8.2f bit-times (paper reports ~4.5)\n", cal.SpreadBits())
	fmt.Fprintf(out, "replay detection threshold = %.0f cycles (x_max + %d guard band)\n",
		cal.Threshold(), int(core.GuardBand))
	fmt.Fprintf(out, "one replayed 16-byte packet adds >= %d cycles: always detected\n",
		phy.FrameAirTime(16))
	return nil
}
