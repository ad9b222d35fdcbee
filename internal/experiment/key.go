package experiment

import (
	"encoding/json"
	"fmt"
)

// keyVersion versions EncodeKey's layout. v2 added the detector identity
// field: bumping the version retires every v1 entry wholesale, so a
// cache populated before the detector field existed can never satisfy a
// lookup made after (stale v1 entries for what is now a non-default
// detector simply never match a v2 key).
const keyVersion = "beaconsec-key/v2"

// EncodeKey builds the canonical cache-key material for a sweep: the key
// layout version, a kind tag (name the sweep shape and bump a /vN suffix
// on incompatible per-kind layout changes), the canonical identity of
// the detector the sweep runs (its name in core.DetectorNames; empty for
// detector-independent computations like the RTT calibration), plus the
// deterministic JSON encoding of cfg — struct fields in declaration
// order, map keys sorted, floats in shortest exact form. cfg must be the
// fully resolved configuration the sweep's Run closure derives its
// per-job configs from, with per-job seeds zeroed (the harness's job
// fingerprint addresses those): any semantic config change then changes
// the key and misses the cache. The detector field is deliberately
// explicit even when cfg names the detector: cached trials must never
// cross detector choices, whatever shape cfg takes.
//
// Behavior changes that live in code rather than config values — a
// different formula behind the same Config — are invisible to EncodeKey
// by construction; those must bump cache.CodeSalt.
func EncodeKey(kind, detector string, cfg any) []byte {
	b, err := json.Marshal(cfg)
	if err != nil {
		// Config types are plain exported data; a marshal failure is a
		// programming error, not a runtime condition.
		panic(fmt.Sprintf("experiment: EncodeKey(%s): %v", kind, err))
	}
	key := make([]byte, 0, len(keyVersion)+1+len(kind)+1+len(detector)+1+len(b))
	key = append(key, keyVersion...)
	key = append(key, 0)
	key = append(key, kind...)
	key = append(key, 0)
	key = append(key, detector...)
	key = append(key, 0)
	return append(key, b...)
}
