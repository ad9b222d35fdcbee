package revoke

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"beaconsec/internal/ident"
	"beaconsec/internal/rng"
)

// ReportCount returns the current report counter of id, the oracle view
// these tests compare against the serial BaseStation's.
func (s *Sharded) ReportCount(id ident.NodeID) int {
	rs := &s.reporters[uint16(id)&s.mask]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.reports[id]
}

// TestShardedMatchesBaseStationSerial pins that for any serial alert
// stream the sharded station and the serial reference BaseStation are
// indistinguishable: same per-alert outcomes, same counters, same revoked
// set, same stats.
func TestShardedMatchesBaseStationSerial(t *testing.T) {
	for _, shards := range []int{1, 4, 32} {
		cfg := cfg(3, 2)
		bs := NewBaseStation(cfg)
		sh := NewSharded(cfg, shards)
		src := rng.New(99)
		for i := 0; i < 5000; i++ {
			reporter := ident.NodeID(1 + src.Intn(40))
			target := ident.NodeID(1 + src.Intn(60)) // overlaps reporters: self-reports occur
			want := bs.HandleAlert(reporter, target)
			got := sh.HandleAlert(reporter, target)
			if got != want {
				t.Fatalf("shards=%d alert %d (%v->%v): sharded %v, base station %v",
					shards, i, reporter, target, got, want)
			}
		}
		if !reflect.DeepEqual(sh.RevokedSet(), bs.RevokedSet()) {
			t.Errorf("shards=%d revoked sets differ: %v vs %v", shards, sh.RevokedSet(), bs.RevokedSet())
		}
		if sh.Stats() != bs.stats {
			t.Errorf("shards=%d stats differ: %+v vs %+v", shards, sh.Stats(), bs.stats)
		}
		for id := ident.NodeID(1); id <= 60; id++ {
			if sh.AlertCount(id) != bs.alerts[id] {
				t.Errorf("shards=%d AlertCount(%v) = %d, want %d", shards, id, sh.AlertCount(id), bs.alerts[id])
			}
			if sh.ReportCount(id) != bs.reports[id] {
				t.Errorf("shards=%d ReportCount(%v) = %d, want %d", shards, id, sh.ReportCount(id), bs.reports[id])
			}
		}
	}
}

// TestShardedConcurrentMatchesSerialBaseline hammers the sharded station
// from many goroutines with a workload in the order-insensitive regime
// (no reporter exceeds its τ budget, so every distinct non-self pair is
// accepted in any interleaving) and checks the final revocation state
// equals the serial baseline.
func TestShardedConcurrentMatchesSerialBaseline(t *testing.T) {
	const (
		workers      = 8
		perWorker    = 400
		tau          = 1 << 14 // never capped: order-insensitive regime
		tauPrime     = 2
		targetSpread = 50
	)
	cfg := cfg(tau, tauPrime)
	sh := NewSharded(cfg, 16)

	type alert struct{ reporter, target ident.NodeID }
	streams := make([][]alert, workers)
	for w := range streams {
		src := rng.New(uint64(1000 + w))
		for i := 0; i < perWorker; i++ {
			streams[w] = append(streams[w], alert{
				reporter: ident.NodeID(1 + w),
				target:   ident.NodeID(100 + src.Intn(targetSpread)),
			})
		}
	}

	var wg sync.WaitGroup
	for w := range streams {
		wg.Add(1)
		go func(stream []alert) {
			defer wg.Done()
			for _, a := range stream {
				sh.HandleAlert(a.reporter, a.target)
			}
		}(streams[w])
	}
	wg.Wait()

	base := NewBaseStation(cfg)
	for _, stream := range streams {
		for _, a := range stream {
			base.HandleAlert(a.reporter, a.target)
		}
	}
	if got, want := sh.RevokedSet(), base.RevokedSet(); !reflect.DeepEqual(got, want) {
		t.Errorf("concurrent revoked set %v != serial %v", got, want)
	}
	if got, want := sh.Stats().Handled, base.stats.Handled; got != want {
		t.Errorf("handled %d != %d", got, want)
	}
	for id := ident.NodeID(100); id < 100+targetSpread; id++ {
		if got, want := sh.AlertCount(id), base.alerts[id]; got != want {
			t.Errorf("AlertCount(%v) = %d, want %d", id, got, want)
		}
	}
}

func TestShardedOnRevokeFiresOncePerTarget(t *testing.T) {
	sh := NewSharded(cfg(100, 1), 8)
	var mu sync.Mutex
	fired := map[ident.NodeID]int{}
	sh.OnRevoke(func(id ident.NodeID) {
		mu.Lock()
		fired[id]++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for r := 1; r <= 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for tgt := 100; tgt < 120; tgt++ {
				sh.HandleAlert(ident.NodeID(r), ident.NodeID(tgt))
			}
		}(r)
	}
	wg.Wait()
	for tgt := 100; tgt < 120; tgt++ {
		if got := fired[ident.NodeID(tgt)]; got != 1 {
			t.Errorf("target %d revoked callback fired %d times, want 1", tgt, got)
		}
	}
}

func TestShardedShardStatsSumToStats(t *testing.T) {
	sh := NewSharded(cfg(10, 1), 4)
	src := rng.New(7)
	for i := 0; i < 300; i++ {
		sh.HandleAlert(ident.NodeID(1+src.Intn(10)), ident.NodeID(50+src.Intn(30)))
	}
	var sum Stats
	prev := -1
	for _, l := range sh.LoadedShards() {
		if l.Shard <= prev || l.Shard >= sh.NumShards() || l.Stats == (Stats{}) {
			t.Errorf("loaded shard %+v out of order, out of range or idle", l)
		}
		prev = l.Shard
		sum.Merge(l.Stats)
	}
	if sum != sh.Stats() {
		t.Errorf("shard stats sum %+v != Stats %+v", sum, sh.Stats())
	}
	if sum.Handled != 300 {
		t.Errorf("handled %d, want 300", sum.Handled)
	}
}

func TestShardedShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 1}, {2, 2}, {3, 4}, {16, 16}, {17, 32}, {65536, 65536}} {
		if got := NewSharded(cfg(1, 1), tc.in).NumShards(); got != tc.want {
			t.Errorf("NumShards(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestShardedPanicsOnBadInput(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad config": func() { NewSharded(cfg(-1, 0), 4) },
		"zero shard": func() { NewSharded(cfg(1, 1), 0) },
		"above 2^16": func() { NewSharded(cfg(1, 1), MaxShards+1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// benchAlerts pre-generates a pseudo-random alert workload: many
// reporters, many targets, τ′ high enough that nothing revokes (revoked
// targets would short-circuit the interesting lock path).
func benchAlerts(n int) []struct{ reporter, target ident.NodeID } {
	src := rng.New(123)
	out := make([]struct{ reporter, target ident.NodeID }, n)
	for i := range out {
		out[i].reporter = ident.NodeID(1 + src.Intn(512))
		out[i].target = ident.NodeID(1024 + src.Intn(512))
	}
	return out
}

func benchParallelAlerts(b *testing.B, station *Sharded) {
	alerts := benchAlerts(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Offset each goroutine into the workload so they don't all walk
		// the same shard sequence in lockstep.
		i := runtime.NumGoroutine() % len(alerts)
		for pb.Next() {
			a := alerts[i]
			station.HandleAlert(a.reporter, a.target)
			i++
			if i == len(alerts) {
				i = 0
			}
		}
	})
}

// BenchmarkHandleAlertParallelSingle vs ...Sharded is the contention
// benchmark recorded in EXPERIMENTS.md: the same parallel workload
// against one shard (the station the simulation runs) and against 32.
func BenchmarkHandleAlertParallelSingle(b *testing.B) {
	benchParallelAlerts(b, NewSharded(Config{ReportCap: 1 << 20, AlertThreshold: 1 << 20}, 1))
}

func BenchmarkHandleAlertParallelSharded(b *testing.B) {
	benchParallelAlerts(b, NewSharded(Config{ReportCap: 1 << 20, AlertThreshold: 1 << 20}, 32))
}
