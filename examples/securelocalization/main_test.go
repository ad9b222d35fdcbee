package main

// Example runs both views and pins what they print: the one-reference
// skew and the defended and undefended paper-scale runs.
func Example() {
	main()
	// Output:
	// === one corrupted reference skews multilateration ===
	// true position (75.0, 75.0); clean estimate error 0.00 ft; with one malicious reference 24.4 ft
	//
	// === paper-scale network, attacker at P = 0.5 ===
	//               localized     mean err  misled/beacon    revoked
	// undefended          823     114.6 ft          27.00          0
	// defended            776      32.7 ft           0.00         10
	//
	// The defense revokes the compromised beacons before most sensors ask
	// them for references, pulling the mean localization error back toward
	// the 10 ft ranging-noise floor.
}
