//go:build race

package scenario

// Allocation-count pins describe the runtime production runs, not the
// race detector's instrumented one, so they skip under -race (where the
// metro pin would also take seconds instead of a fraction of one).
func init() { raceEnabled = true }
