package main

// Example runs the walkthrough and pins what it prints: the seed-42
// calibration and the verdict each exchange earns.
func Example() {
	main()
	// Output:
	// === RTT calibration (Figure 4) ===
	// x_min = 13093 cycles, x_max = 14616 cycles, spread = 3.97 bit-times
	// local-replay threshold = 15000 cycles
	//
	// === detecting-node pipeline (§2.1–2.2) ===
	// benign neighbor at (100,0), honest signal                      -> benign
	// compromised beacon manipulating transmit power (+50 ft bias)   -> malicious  [report to base station]
	// far beacon's signal replayed through a wormhole (detector fired) -> wormhole-replay  [discard, no alert: avoids a false positive]
	// neighbor's signal recorded and replayed by a local attacker    -> local-replay  [discard, no alert: avoids a false positive]
	//
	// === sensor-node filter (no own location) ===
	// benign neighbor at (100,0), honest signal                      -> benign (use as location reference)
	// compromised beacon manipulating transmit power (+50 ft bias)   -> benign (use as location reference)
	// far beacon's signal replayed through a wormhole (detector fired) -> wormhole-replay (discard)
	// neighbor's signal recorded and replayed by a local attacker    -> local-replay (discard)
}
