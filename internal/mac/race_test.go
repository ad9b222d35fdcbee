//go:build race

package mac

// Allocation-count pins are skipped under -race, as in the other
// packages that carry them.
func init() { raceEnabled = true }
