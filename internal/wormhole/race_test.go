//go:build race

package wormhole

// Allocation-count pins are skipped under -race, as in the other
// packages that carry them.
func init() { raceEnabled = true }
