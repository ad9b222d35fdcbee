package analysis_test

import (
	"fmt"

	"beaconsec/internal/analysis"
)

// ExampleDetectionRate reproduces the paper's Figure 5 relationship: more
// detecting IDs force the attacker into a corner.
func ExampleDetectionRate() {
	for _, m := range []int{1, 8} {
		fmt.Printf("m=%d: P_r(0.2) = %.2f\n", m, analysis.DetectionRate(0.2, m))
	}
	// Output:
	// m=1: P_r(0.2) = 0.20
	// m=8: P_r(0.2) = 0.83
}
