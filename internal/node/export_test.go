package node

import "beaconsec/internal/mac"

// Link endpoints of each node kind, for the external tests.

func BeaconEndpoint(b *Beacon) *mac.Endpoint       { return b.ep }
func MaliciousEndpoint(m *Malicious) *mac.Endpoint { return m.ep }
func SensorEndpoint(s *Sensor) *mac.Endpoint       { return s.ep }
