package main

// Example runs the quickstart and pins what it prints: the paper
// scenario's seed-1 outcome and the closed-form prediction beside it.
func Example() {
	main()
	// Output:
	// === secure location discovery: paper scenario ===
	// malicious beacons revoked: 9/10 (detection rate 90%)
	// benign beacons lost to collusion + wormhole: 36 (FPR 36.0%)
	// sensors still misled per surviving malicious beacon: 1.00
	// sensors localized: 629, mean error 30.1 ft
	// theoretical detection rate at Nc=68: 93%
}
