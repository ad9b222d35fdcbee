package localization_test

import (
	"fmt"

	"beaconsec/internal/geo"
	"beaconsec/internal/localization"
)

// ExampleRobustMultilaterate excludes a lying beacon from the fix.
func ExampleRobustMultilaterate() {
	truth := geo.Point{X: 75, Y: 75}
	beacons := []geo.Point{{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 0, Y: 150}, {X: 150, Y: 150}, {X: 75, Y: 0}}
	refs := make([]localization.Reference, len(beacons))
	for i, b := range beacons {
		refs[i] = localization.Reference{Loc: b, Dist: truth.Dist(b)}
	}
	refs[1].Dist += 90 // compromised beacon enlarges its distance
	est, kept, _ := localization.RobustMultilaterate(refs, 10)
	fmt.Printf("(%.0f, %.0f) using %d of %d references\n", est.X, est.Y, len(kept), len(refs))
	// Output:
	// (75, 75) using 4 of 5 references
}
