package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"beaconsec/internal/crypto"
	"beaconsec/internal/ident"
	"beaconsec/internal/revnet"
	"beaconsec/internal/revoke"
)

// syncBuffer lets the test read run's output while run is still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitMatch polls out until re's first capture group appears.
func waitMatch(t *testing.T, out *syncBuffer, re *regexp.Regexp) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("output never matched %v; got:\n%s", re, out.String())
	return ""
}

func TestRunServesAlertsAndStatus(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-status", "127.0.0.1:0",
			"-master", "test-secret",
			"-tau", "5",
			"-tauprime", "1",
			"-json", "-",
		}, out)
	}()

	addr := waitMatch(t, out, regexp.MustCompile(`serving on ([0-9.:]+) `))
	statusURL := waitMatch(t, out, regexp.MustCompile(`status at (http://[0-9.:]+/status)`))

	master := crypto.NewMaster([]byte("test-secret"))
	send := func(self ident.NodeID) {
		t.Helper()
		c, err := revnet.NewClient(revnet.ClientConfig{
			Addr: addr,
			Self: self,
			Key:  master.BaseStationKey(self),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.SendAlert(ctx, 99); err != nil {
			t.Fatal(err)
		}
	}
	// τ′=1: two distinct accusers revoke node 99.
	send(1)
	send(2)

	resp, err := http.Get(statusURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var live revnet.StatusSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&live); err != nil {
		t.Fatal(err)
	}
	if len(live.Revoked) != 1 || live.Revoked[0] != 99 {
		t.Errorf("live status revoked = %v, want [99]", live.Revoked)
	}
	if live.Revoke != (revoke.Config{ReportCap: 5, AlertThreshold: 1}) {
		t.Errorf("live status thresholds = %+v", live.Revoke)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not stop after cancel")
	}

	// -json -: the shutdown snapshot follows the log lines on stdout.
	text := out.String()
	if !strings.Contains(text, "shutting down") {
		t.Errorf("no shutdown line in output:\n%s", text)
	}
	var final revnet.StatusSnapshot
	if err := json.Unmarshal([]byte(text[strings.Index(text, "{"):]), &final); err != nil {
		t.Fatalf("shutdown snapshot is not JSON: %v\noutput:\n%s", err, text)
	}
	if len(final.Revoked) != 1 || final.Revoked[0] != 99 {
		t.Errorf("final snapshot revoked = %v, want [99]", final.Revoked)
	}
	if final.Net.FramesIn != 2 {
		t.Errorf("final snapshot frames_in = %d, want 2", final.Net.FramesIn)
	}
}

func TestRunJSONFile(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	path := t.TempDir() + "/status.json"
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-master", "test-secret",
			"-json", path,
		}, out)
	}()
	waitMatch(t, out, regexp.MustCompile(`serving on ([0-9.:]+) `))
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap revnet.StatusSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot file is not JSON: %v", err)
	}
	if snap.Revoke.ReportCap != 5 {
		t.Errorf("snapshot τ = %d, want default 5", snap.Revoke.ReportCap)
	}
}

func TestRunFlagErrors(t *testing.T) {
	ctx := context.Background()
	var out bytes.Buffer
	if err := run(ctx, nil, &out); err == nil {
		t.Error("missing -master accepted")
	}
	if err := run(ctx, []string{"-master", "x", "-tauprime", "-1"}, &out); err == nil {
		t.Error("negative τ′ accepted")
	}
	if err := run(ctx, []string{"-master", "x", "-addr", "not-an-address"}, &out); err == nil {
		t.Error("unlistenable address accepted")
	}
	if err := run(ctx, []string{"-bogus"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	// Counts above revoke.MaxShards are refused before anything is
	// allocated, including ones whose power-of-two rounding overflows.
	for _, n := range []string{"65537", "1073741824", "9223372036854775807"} {
		if err := run(ctx, []string{"-master", "x", "-shards", n}, &out); err == nil {
			t.Errorf("-shards %s accepted", n)
		}
	}
}

// FuzzRun drives run with arbitrary -tau, -tauprime, -shards and -idle
// values and a context that is already cancelled, so run starts, shuts
// down and writes its snapshot without waiting. No input may panic. A
// negative τ or τ′, or a shard count above revoke.MaxShards, must be an
// error; any other input must print the serving line and write a
// snapshot that decodes and carries the thresholds given.
func FuzzRun(f *testing.F) {
	// The flag defaults.
	const defTau, defTauPrime, defShards, defIdle = 5, 3, 16, int64(2 * time.Minute)
	f.Add(defTau, defTauPrime, defShards, defIdle)
	for _, v := range []int{0, -1, math.MaxInt} {
		f.Add(v, defTauPrime, defShards, defIdle)
		f.Add(defTau, v, defShards, defIdle)
		f.Add(defTau, defTauPrime, v, defIdle)
		f.Add(defTau, defTauPrime, defShards, int64(v))
	}
	f.Add(defTau, defTauPrime, revoke.MaxShards, defIdle)
	f.Add(defTau, defTauPrime, revoke.MaxShards+1, defIdle)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, tau, tauPrime, shards int, idle int64) {
		var out bytes.Buffer
		err := run(ctx, []string{
			"-master", "fuzz",
			"-addr", "127.0.0.1:0",
			"-json", "-",
			"-tau", strconv.Itoa(tau),
			"-tauprime", strconv.Itoa(tauPrime),
			"-shards", strconv.Itoa(shards),
			"-idle", time.Duration(idle).String(),
		}, &out)
		if tau < 0 || tauPrime < 0 || shards > revoke.MaxShards {
			if err == nil {
				t.Fatalf("τ=%d τ′=%d shards=%d accepted", tau, tauPrime, shards)
			}
			return
		}
		if err != nil {
			t.Fatalf("τ=%d τ′=%d shards=%d idle=%v: %v", tau, tauPrime, shards, time.Duration(idle), err)
		}
		text := out.String()
		if !strings.Contains(text, "revoked: serving on ") {
			t.Fatalf("no serving line in output:\n%s", text)
		}
		i := strings.Index(text, "{")
		if i < 0 {
			t.Fatalf("no snapshot in output:\n%s", text)
		}
		var snap revnet.StatusSnapshot
		if err := json.Unmarshal([]byte(text[i:]), &snap); err != nil {
			t.Fatalf("snapshot is not JSON: %v", err)
		}
		if want := (revoke.Config{ReportCap: tau, AlertThreshold: tauPrime}); snap.Revoke != want {
			t.Fatalf("snapshot thresholds = %+v, want %+v", snap.Revoke, want)
		}
	})
}
