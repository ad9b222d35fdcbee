package revnet

// Loopback integration suite: a real Server on 127.0.0.1 driven by real
// Clients over TCP. The load test is the PR's acceptance gate: N
// concurrent clients firing interleaved alerts must leave the server in
// exactly the revocation state a serial in-process one-shard station
// reaches on the same alerts — the counter scheme is order-insensitive
// as long as no reporter exceeds its τ budget (every alert stream here
// stays under it, so any interleaving accepts the same pairs).

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"beaconsec/internal/crypto"
	"beaconsec/internal/ident"
	"beaconsec/internal/revoke"
	"beaconsec/internal/rng"
)

func testMaster() *crypto.Master { return crypto.NewMaster([]byte("revnet-test")) }

// startServer runs srv on an ephemeral loopback listener and returns its
// address. Shutdown (and Serve's error) is checked in cleanup.
func startServer(tb testing.TB, cfg ServerConfig) (*Server, string) {
	tb.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	// Wait for the Serve goroutine to register the listener so the
	// returned server is deterministically "serving" (Addr set, second
	// Serve rejected).
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	tb.Cleanup(func() {
		if err := srv.Close(); err != nil {
			tb.Errorf("server close: %v", err)
		}
		if err := <-done; err != nil {
			tb.Errorf("serve: %v", err)
		}
	})
	return srv, lis.Addr().String()
}

func newTestClient(tb testing.TB, addr string, self ident.NodeID, master *crypto.Master) *Client {
	tb.Helper()
	c, err := NewClient(ClientConfig{
		Addr:           addr,
		Self:           self,
		Key:            master.BaseStationKey(self),
		AttemptTimeout: 5 * time.Second,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

type alertPair struct{ reporter, target ident.NodeID }

// makeStreams builds one alert stream per client, all in the
// order-insensitive regime (τ far above any reporter's distinct-target
// count).
func makeStreams(clients, perClient, targetSpread int) [][]alertPair {
	streams := make([][]alertPair, clients)
	for w := range streams {
		src := rng.New(uint64(7000 + w))
		for i := 0; i < perClient; i++ {
			streams[w] = append(streams[w], alertPair{
				reporter: ident.NodeID(1 + w),
				target:   ident.NodeID(500 + src.Intn(targetSpread)),
			})
		}
	}
	return streams
}

// serialBaseline replays every stream into a fresh one-shard station, in
// stream order. revoke's own tests tie Sharded to a serial reference at
// every shard count.
func serialBaseline(cfg revoke.Config, streams [][]alertPair) *revoke.Sharded {
	bs := revoke.NewSharded(cfg, 1)
	for _, stream := range streams {
		for _, a := range stream {
			bs.HandleAlert(a.reporter, a.target)
		}
	}
	return bs
}

// TestLoopbackConcurrentClientsMatchSerialBaseline is the acceptance
// load test: ≥1000 alerts from ≥8 concurrent TCP clients, with status
// queries running throughout, must produce a revocation set
// byte-identical (canonically sorted, JSON-encoded) to the serial
// baseline.
func TestLoopbackConcurrentClientsMatchSerialBaseline(t *testing.T) {
	const (
		clients      = 8
		perClient    = 150 // 1200 alerts total
		targetSpread = 40
	)
	rcfg := revoke.Config{ReportCap: 1 << 14, AlertThreshold: 2}
	master := testMaster()
	srv, addr := startServer(t, ServerConfig{Revoke: rcfg, Master: master, Shards: 16})

	streams := makeStreams(clients, perClient, targetSpread)

	// Clients are built on the test goroutine (newTestClient may Fatal)
	// and handed to the workers.
	qc := newTestClient(t, addr, ident.NodeID(900), master)
	alertClients := make([]*Client, clients)
	for w := 0; w < clients; w++ {
		alertClients[w] = newTestClient(t, addr, streams[w][0].reporter, master)
	}

	// Status queries hammer the server for the whole ingest window: the
	// no-global-lock acceptance criterion, exercised functionally.
	stopQueries := make(chan struct{})
	queryDone := make(chan error, 1)
	go func() {
		defer close(queryDone)
		for i := 0; ; i++ {
			select {
			case <-stopQueries:
				return
			default:
			}
			if _, err := qc.Query(context.Background(), ident.NodeID(500+i%targetSpread)); err != nil {
				queryDone <- err
				return
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(c *Client, stream []alertPair) {
			defer wg.Done()
			for _, a := range stream {
				if _, err := c.SendAlert(context.Background(), a.target); err != nil {
					errs <- err
					return
				}
			}
		}(alertClients[w], streams[w])
	}
	wg.Wait()
	close(stopQueries)
	if err, ok := <-queryDone; ok && err != nil {
		t.Fatalf("status query during ingest: %v", err)
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	base := serialBaseline(rcfg, streams)
	gotJSON, err := json.Marshal(srv.Station().RevokedSet())
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(base.RevokedSet())
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("revocation set over the wire differs from serial baseline:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	if len(base.RevokedSet()) == 0 {
		t.Fatal("degenerate test: baseline revoked nothing")
	}
	alerts := srv.Station().Stats().Handled
	if alerts != clients*perClient {
		t.Errorf("server handled %d alerts, want %d", alerts, clients*perClient)
	}
	for id := ident.NodeID(500); id < 500+targetSpread; id++ {
		if got, want := srv.Station().AlertCount(id), base.AlertCount(id); got != want {
			t.Errorf("AlertCount(%v) = %d, want %d", id, got, want)
		}
	}

	// Wire-level accounting: every alert and every query got exactly one
	// status reply, and the byte counters saw them.
	snap := srv.m.Snapshot()
	if snap.ConnsAccepted != clients+1 {
		t.Errorf("conns accepted = %d, want %d", snap.ConnsAccepted, clients+1)
	}
	if snap.FramesIn != alerts+snap.QueriesServed {
		t.Errorf("frames in = %d, want alerts %d + queries %d", snap.FramesIn, alerts, snap.QueriesServed)
	}
	if snap.QueriesServed == 0 {
		t.Error("no status queries served during ingest")
	}
	if snap.BytesIn == 0 || snap.BytesOut == 0 {
		t.Errorf("byte counters empty: in %d out %d", snap.BytesIn, snap.BytesOut)
	}
	if snap.AuthFailures != 0 || snap.ProtocolErrors != 0 || snap.ConnsDropped != 0 {
		t.Errorf("clean run recorded failures: %+v", snap)
	}
}

// TestLoopbackAlertOutcomesOverWire walks one client through every
// client-reachable outcome and checks the wire round-trip preserves it.
func TestLoopbackAlertOutcomesOverWire(t *testing.T) {
	master := testMaster()
	_, addr := startServer(t, ServerConfig{
		Revoke: revoke.Config{ReportCap: 100, AlertThreshold: 1},
		Master: master,
	})
	ctx := context.Background()
	c1 := newTestClient(t, addr, 1, master)
	c2 := newTestClient(t, addr, 2, master)

	steps := []struct {
		name   string
		client *Client
		target ident.NodeID
		want   revoke.Outcome
	}{
		{"first accusation accepted", c1, 50, revoke.OutcomeAccepted},
		{"duplicate pair", c1, 50, revoke.OutcomeDuplicate},
		{"self report", c1, 1, revoke.OutcomeSelfReport},
		{"second accusation revokes", c2, 50, revoke.OutcomeRevoked},
		{"already revoked", c1, 50, revoke.OutcomeAlreadyRevoked},
	}
	for _, tt := range steps {
		out, err := tt.client.SendAlert(ctx, tt.target)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if out != tt.want {
			t.Errorf("%s: outcome %v, want %v", tt.name, out, tt.want)
		}
	}

	revoked, err := c1.Query(ctx, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !revoked {
		t.Error("query says 50 not revoked")
	}
	clear, err := c1.Query(ctx, 60)
	if err != nil {
		t.Fatal(err)
	}
	if clear {
		t.Error("query says 60 revoked")
	}
}

// TestLoopbackForgedClientKeyRejected pins the authentication boundary:
// a client signing with the wrong base-station key gets dropped, never
// applied.
func TestLoopbackForgedClientKeyRejected(t *testing.T) {
	master := testMaster()
	srv, addr := startServer(t, ServerConfig{
		Revoke: revoke.Config{ReportCap: 10, AlertThreshold: 0},
		Master: master,
	})
	// Node 3's key used under node 4's identity: the server derives node
	// 4's key from Src and the tag check fails.
	forger, err := NewClient(ClientConfig{
		Addr:        addr,
		Self:        4,
		Key:         master.BaseStationKey(3),
		MaxAttempts: 2,
		BackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer forger.Close()
	if _, err := forger.SendAlert(context.Background(), 50); err == nil {
		t.Fatal("forged alert succeeded")
	}
	if srv.Station().Stats().Handled != 0 {
		t.Error("forged alert reached the station")
	}
	if srv.m.AuthFailures.Load() == 0 {
		t.Error("no auth failure recorded")
	}
}

func TestStatusSnapshotAndHTTPEndpoint(t *testing.T) {
	master := testMaster()
	srv, addr := startServer(t, ServerConfig{
		Revoke: revoke.Config{ReportCap: 10, AlertThreshold: 0},
		Master: master,
		Shards: 4,
	})
	c := newTestClient(t, addr, 1, master)
	if _, err := c.SendAlert(context.Background(), 50); err != nil {
		t.Fatal(err)
	}

	snap := srv.StatusSnapshot()
	if snap.Addr != addr {
		t.Errorf("snapshot addr %q, want %q", snap.Addr, addr)
	}
	// Only target 50's shard has handled an alert.
	want := []revoke.ShardLoad{{Shard: 50 % 4, Stats: snap.Station}}
	if snap.Shards != 4 || !reflect.DeepEqual(snap.ByShard, want) {
		t.Errorf("shards = %d, by shard %+v, want 4 and %+v", snap.Shards, snap.ByShard, want)
	}
	if !reflect.DeepEqual(snap.Revoked, []ident.NodeID{50}) {
		t.Errorf("revoked = %v, want [50]", snap.Revoked)
	}
	if snap.Station.Revocations != 1 {
		t.Errorf("station stats %+v, want 1 revocation", snap.Station)
	}

	// The same snapshot over the HTTP status endpoint.
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded StatusSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded.Revoked, snap.Revoked) || decoded.Station != snap.Station {
		t.Errorf("HTTP snapshot %+v differs from direct %+v", decoded, snap)
	}
}

// TestStatusSnapshotCarriesLoadedShardsOnly pins the snapshot's per-shard
// view: an idle station writes no larger a snapshot at revoke.MaxShards
// than at 16 shards, and a loaded one lists exactly the shards its
// targets hash to, by index, summing to the station's counters.
func TestStatusSnapshotCarriesLoadedShardsOnly(t *testing.T) {
	cfg := revoke.Config{ReportCap: 10, AlertThreshold: 2}
	size := func(shards int) int {
		srv, err := NewServer(ServerConfig{Revoke: cfg, Master: testMaster(), Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := srv.WriteStatus(&b); err != nil {
			t.Fatal(err)
		}
		return b.Len()
	}
	// "65536" is three bytes longer than "16" in the shards field.
	if idle, base := size(revoke.MaxShards), size(16); idle > base+3 {
		t.Errorf("idle snapshot at %d shards is %d bytes, %d at 16 shards", revoke.MaxShards, idle, base)
	}

	const shards = 64
	srv, err := NewServer(ServerConfig{Revoke: cfg, Master: testMaster(), Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	loaded := map[int]bool{}
	for _, tgt := range []ident.NodeID{5, 69, 200, 1000, 1001} { // 5 and 69 share shard 5
		for r := ident.NodeID(1); r <= 3; r++ {
			srv.Station().HandleAlert(r, tgt)
		}
		loaded[int(tgt)%shards] = true
	}
	snap := srv.StatusSnapshot()
	if snap.Shards != shards || len(snap.ByShard) != len(loaded) {
		t.Fatalf("shards = %d, %d loaded entries %+v, want %d and %d", snap.Shards, len(snap.ByShard), snap.ByShard, shards, len(loaded))
	}
	var sum revoke.Stats
	for i, l := range snap.ByShard {
		if !loaded[l.Shard] || (i > 0 && l.Shard <= snap.ByShard[i-1].Shard) {
			t.Errorf("entry %d names shard %d: not loaded or out of order", i, l.Shard)
		}
		sum.Merge(l.Stats)
	}
	if sum != snap.Station || sum.Handled != 15 {
		t.Errorf("loaded shards sum to %+v, station %+v, want 15 handled", sum, snap.Station)
	}
}

func TestServerLifecycleErrors(t *testing.T) {
	if _, err := NewServer(ServerConfig{Revoke: revoke.Config{ReportCap: 1, AlertThreshold: 1}}); err == nil {
		t.Error("NewServer without master succeeded")
	}
	if _, err := NewServer(ServerConfig{Master: testMaster(), Revoke: revoke.Config{ReportCap: -1}}); err == nil {
		t.Error("NewServer with bad thresholds succeeded")
	}

	srv, _ := startServer(t, ServerConfig{Master: testMaster(), Revoke: revoke.Config{ReportCap: 1, AlertThreshold: 1}})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(lis); err == nil {
		t.Error("second Serve succeeded")
	}
}
