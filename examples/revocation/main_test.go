package main

// Example runs the threshold sweep and the loopback revocation and pins
// what they print.
func Example() {
	main()
	// Output:
	// === threshold trade-off at tau' = 2 (colluding reporters) ===
	// tau   detection  false-pos  collusion-bound  comment
	//   1       1.00      0.080              3.4  workable operating point
	//   2       1.00      0.120              5.0  workable operating point
	//   4       1.00      0.160              8.4  collusion expensive: lower tau
	//  10       1.00      0.360             18.4  collusion expensive: lower tau
	//
	// The paper's recommended pair is (tau=10, tau'=2), chosen so the
	// probability of a benign beacon exhausting its report budget is ~0
	// (Figure 10) while collusion damage stays bounded by Na(tau+1)/(tau'+1).
	//
	// === the same revocation, over the wire (tau=10, tau'=2) ===
	// node 7 accuses 42 over TCP: accepted
	// node 8 accuses 42 over TCP: accepted
	// node 9 accuses 42 over TCP: revoked
	// node 3 queries 42: revoked=true
	//
	// Run 'go run ./cmd/revoked -master SECRET' for the standalone daemon,
	// with -status for a live JSON endpoint and -json for a shutdown snapshot.
}
