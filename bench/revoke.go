package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"beaconsec/internal/crypto"
	"beaconsec/internal/ident"
	"beaconsec/internal/revnet"
	"beaconsec/internal/revoke"
)

// The revoke-uplink traffic mix. Reporters and targets come from disjoint
// ID ranges, so no alert is a self-report; a session sends more alerts
// than a reporter's τ budget; half the targets are a Zipf-skewed hot set,
// so targets get revoked, revisited and re-accused.
//
// Node IDs are 16 bits wide, so one server would revoke every target
// within two seconds and answer already-revoked from then on. The run is
// therefore cut into epochs of sizes.revokeEpoch requests, each against a
// fresh server, so every epoch sends the same share of its alerts down
// revoke.Sharded's write path.
const (
	revokeMaster    = "bench-master"
	reporterBase    = 1
	reporterIDs     = 32768
	targetBase      = reporterBase + reporterIDs
	targetIDs       = 16384
	hotIDs          = 1024
	zipfS           = 1.1
	sessionRequests = 16
	sessionSample   = 16
	// probeReporter sends the query that finds the server ready; it is
	// outside both ranges.
	probeReporter = ident.NodeID(60000)
)

// revokedConfig is cmd/revoked's default τ, τ′ and shard count, which the
// untraced run uses and the traced run's in-process server copies.
var revokedConfig = revoke.Config{ReportCap: 5, AlertThreshold: 3}

const revokedShards = 16

// stopTimeout bounds how long an interrupted server may take to exit.
const stopTimeout = 10 * time.Second

// requestGen draws one connection's requests: 3/4 alerts and 1/4
// queries, targets half uniform over the target range and half Zipf over
// the hot set.
type requestGen struct {
	r    *rand.Rand
	zipf *rand.Zipf
}

func newRequestGen(seed uint64, epoch, conn int) *requestGen {
	r := rand.New(rand.NewPCG(seed, uint64(epoch)<<32|uint64(conn)))
	return &requestGen{r: r, zipf: rand.NewZipf(r, zipfS, 1, hotIDs-1)}
}

func (g *requestGen) next() (query bool, target ident.NodeID) {
	query = g.r.IntN(4) == 0
	if g.r.IntN(2) == 0 {
		return query, ident.NodeID(targetBase + g.r.IntN(targetIDs))
	}
	// An odd multiplier permutes the target range, spreading the hot set
	// over it.
	rank := int(g.zipf.Uint64())
	return query, ident.NodeID(targetBase + rank*40503%targetIDs)
}

// load is what the clients of one epoch measured.
type load struct {
	log []request
	// probes were sent outside the load, such as the readiness query:
	// the invariant check counts them, the metrics do not.
	probes  []request
	dials   []time.Duration
	elapsed time.Duration
	client  revnet.Snapshot
}

// drive sends one epoch of requests to addr over conns closed-loop
// connections. Each session is one reporter that dials, sends
// sessionRequests requests and closes; a connection's reporters never
// overlap another's. Latency runs from the moment a request starts,
// including the dial of a session's first.
func drive(ctx context.Context, addr string, seed uint64, epoch, conns, requests int, tr *tracer, parent uint64) (*load, error) {
	master := crypto.NewMaster([]byte(revokeMaster))
	cm := &revnet.Metrics{}
	var issued atomic.Int64
	more := func() bool { return ctx.Err() == nil && issued.Add(1) <= int64(requests) }
	logs := make([][]request, conns)
	dials := make([][]time.Duration, conns)
	errs := make([]error, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := newRequestGen(seed, epoch, c)
			slots := max(1, reporterIDs/conns)
			for j := 0; ; j++ {
				reporter := ident.NodeID(reporterBase + c + conns*(j%slots))
				var dial time.Duration
				client, err := revnet.NewClient(revnet.ClientConfig{
					Addr:    addr,
					Self:    reporter,
					Key:     master.BaseStationKey(reporter),
					Metrics: cm,
					Dial: func(ctx context.Context, network, address string) (net.Conn, error) {
						t0 := time.Now()
						var d net.Dialer
						conn, err := d.DialContext(ctx, network, address)
						dial = time.Since(t0)
						return conn, err
					},
				})
				if err != nil {
					errs[c] = err
					return
				}
				// Spans of every sessionSample-th session keep the trace
				// small; a million requests would otherwise cost
				// hundreds of megabytes of spans.
				str := tr
				if j%sessionSample != 0 {
					str = nil
				}
				sess := str.begin("revnet.session", parent)
				sent := 0
				for ; sent < sessionRequests && more(); sent++ {
					query, target := gen.next()
					rq := request{reporter: reporter, target: target, query: query}
					sp := str.begin("revnet.request", sess.id)
					t0 := time.Now()
					if query {
						rq.revoked, err = client.Query(ctx, target)
					} else {
						rq.outcome, err = client.SendAlert(ctx, target)
					}
					rq.latency = time.Since(t0)
					sp.end()
					rq.failed = err != nil
					logs[c] = append(logs[c], rq)
				}
				client.Close()
				sess.end()
				if sent > 0 {
					dials[c] = append(dials[c], dial)
				}
				if sent < sessionRequests {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	l := &load{elapsed: time.Since(start), client: cm.Snapshot()}
	for c := range logs {
		l.log = append(l.log, logs[c]...)
		l.dials = append(l.dials, dials[c]...)
	}
	return l, errors.Join(errs...)
}

// uplink sums the epochs of one run. It keeps each epoch's summary, not
// its request log, so the benchmark process stays small while it starts
// servers: on Linux a child's ru_maxrss includes the peak of the process
// that spawned it.
type uplink struct {
	requests, failed, sessions int
	busy                       time.Duration
	p50s, p99s, dialP50s       []float64
	outcomes                   map[string]int
}

func newUplink() *uplink { return &uplink{outcomes: map[string]int{}} }

// add checks one epoch's invariants and folds in its measurements.
func (u *uplink) add(res *result, epoch int, l *load, snap revnet.StatusSnapshot) {
	for _, c := range checkRevocation(slices.Concat(l.log, l.probes), snap) {
		res.check("epoch %d: %s", epoch, c)
	}
	lat := make([]time.Duration, 0, len(l.log))
	for _, r := range l.log {
		if r.failed {
			u.failed++
			continue
		}
		lat = append(lat, r.latency)
		if !r.query {
			u.outcomes[r.outcome.String()]++
		}
	}
	u.requests += len(l.log)
	u.sessions += len(l.dials)
	u.busy += l.elapsed
	slices.Sort(lat)
	slices.Sort(l.dials)
	u.p50s = append(u.p50s, percentile(lat, 0.5).Seconds())
	u.p99s = append(u.p99s, percentile(lat, 0.99).Seconds())
	u.dialP50s = append(u.dialP50s, float64(percentile(l.dials, 0.5).Nanoseconds())/1e3)
}

// report sets the metrics both variants share. Latencies are medians over
// the epochs of each epoch's percentile.
func (u *uplink) report(res *result) {
	res.attempted, res.failed = u.requests, u.failed
	res.values["wall_s"] = median(u.p50s)
	res.values["throughput_per_s"] = float64(u.requests-u.failed) / u.busy.Seconds()
	res.extra("request_p99_s", median(u.p99s), "s")
	res.extra("epochs", float64(len(u.p50s)), "count")
	res.extra("requests", float64(u.requests), "count")
	res.extra("sessions", float64(u.sessions), "count")
	res.extra("revnet.dial_us_p50", median(u.dialP50s), "us")
	for _, name := range sortedNames(u.outcomes) {
		res.extra("outcome."+name, float64(u.outcomes[name]), "count")
	}
}

// revokedProc is a running cmd/revoked.
type revokedProc struct {
	cmd     *exec.Cmd
	addr    string
	ready   time.Duration // exec until the first reply
	drained chan struct{}
}

// startRevoked starts cmd/revoked on a free loopback port, reads the
// address from its banner and waits for it to answer one query.
func startRevoked(ctx context.Context, bin, jsonPath string) (*revokedProc, error) {
	cmd := command(ctx, bin, "-addr", "127.0.0.1:0", "-master", revokeMaster, "-json", jsonPath)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &revokedProc{cmd: cmd, drained: make(chan struct{})}
	banner := make(chan string, 1)
	go func() {
		defer close(p.drained)
		br := bufio.NewReader(stdout)
		line, _ := br.ReadString('\n')
		banner <- line
		io.Copy(io.Discard, br)
	}()
	fail := func(err error) (*revokedProc, error) {
		cmd.Process.Kill()
		<-p.drained
		cmd.Wait()
		return nil, err
	}
	var line string
	select {
	case line = <-banner:
	case <-time.After(10 * time.Second):
		return fail(errors.New("revoked printed no banner within 10s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	_, rest, ok := strings.Cut(line, "serving on ")
	p.addr, _, _ = strings.Cut(rest, " ")
	if !ok || p.addr == "" {
		return fail(fmt.Errorf("revoked banner %q names no address", line))
	}
	master := crypto.NewMaster([]byte(revokeMaster))
	client, err := revnet.NewClient(revnet.ClientConfig{Addr: p.addr, Self: probeReporter, Key: master.BaseStationKey(probeReporter)})
	if err == nil {
		_, err = client.Query(ctx, targetBase)
		client.Close()
	}
	if err != nil {
		return fail(fmt.Errorf("revoked at %s: %w", p.addr, err))
	}
	p.ready = time.Since(t0)
	return p, nil
}

// stop interrupts the server, which then writes its -json snapshot, and
// waits for it to exit, killing it if it has not within stopTimeout.
func (p *revokedProc) stop() (child, error) {
	if err := p.cmd.Process.Signal(syscall.SIGINT); err != nil {
		p.cmd.Process.Kill()
	}
	kill := time.AfterFunc(stopTimeout, func() { p.cmd.Process.Kill() })
	<-p.drained
	err := p.cmd.Wait()
	kill.Stop()
	var c child
	if p.cmd.ProcessState != nil {
		c.cpu, c.rssMB = usage(p.cmd.ProcessState)
	}
	return c, err
}

func runRevokeUplink(ctx context.Context, s *session, seed uint64) (*result, error) {
	res := newResult()
	dir, err := s.scratch("revoke-uplink")
	if err != nil {
		return nil, err
	}
	u := newUplink()
	// Set-up is each epoch's server start: exec until the first reply.
	var setups, rss []float64
	var serverCPU time.Duration
	err = s.repeat(ctx, 2, func(epoch int) error {
		snapPath := filepath.Join(dir, fmt.Sprintf("status-%d.json", epoch))
		srv, err := startRevoked(ctx, s.bins.revoked, snapPath)
		if err != nil {
			return err
		}
		l, lerr := drive(ctx, srv.addr, seed, epoch, s.workers, s.size.revokeEpoch, nil, 0)
		c, err := srv.stop()
		if lerr == nil {
			lerr = ctx.Err()
		}
		if lerr != nil {
			return lerr
		}
		if err != nil {
			return fmt.Errorf("revoked: %w", err)
		}
		b, err := os.ReadFile(snapPath)
		if err != nil {
			return err
		}
		var snap revnet.StatusSnapshot
		if err := json.Unmarshal(b, &snap); err != nil {
			return fmt.Errorf("revoked -json: %w", err)
		}
		l.probes = []request{{reporter: probeReporter, target: targetBase, query: true}}
		u.add(res, epoch, l, snap)
		setups = append(setups, srv.ready.Seconds())
		rss = append(rss, c.rssMB)
		serverCPU += c.cpu
		return nil
	})
	if err != nil {
		return nil, err
	}
	u.report(res)
	res.values["setup_s"] = median(setups)
	res.values["peak_rss_mb"] = median(rss)
	res.extra("revnet.server_cpu_us_per_req", serverCPU.Seconds()*1e6/float64(u.requests), "us")
	return res, nil
}

// epochRun is one traced epoch: the clients' load and the server's final
// status.
type epochRun struct {
	load *load
	snap revnet.StatusSnapshot
}

func traceRevokeUplink(ctx context.Context, s *session, seed uint64, tr *tracer) (*result, error) {
	res := newResult()
	if err := tr.start(); err != nil {
		return nil, err
	}
	root := tr.begin("revoke-uplink", 0)
	var runs []epochRun
	err := s.repeat(ctx, 2, func(epoch int) error {
		run, err := serveEpoch(ctx, s, seed, epoch, tr, root.id)
		runs = append(runs, run)
		return err
	})
	root.end()
	tr.stop()
	if err != nil {
		return nil, err
	}
	// Checks and counters are read once the profile has stopped.
	u := newUplink()
	var station revoke.Stats
	var conns, framesIn, retries, errs uint64
	for epoch, r := range runs {
		u.add(res, epoch, r.load, r.snap)
		station.Merge(r.snap.Station)
		conns += r.snap.Net.ConnsAccepted
		framesIn += r.snap.Net.FramesIn
		retries += r.load.client.Retries
		errs += r.snap.Net.AuthFailures + r.snap.Net.ProtocolErrors + r.load.client.Exhausted
	}
	u.report(res)
	res.extra("wall_s", res.values["wall_s"], "s")
	v := res.values
	v["revoke.handled"] = float64(station.Handled)
	v["revoke.accepted_ratio"] = ratio(station.Accepted, station.Handled)
	v["revoke.revocations"] = float64(station.Revocations)
	v["revnet.conns"] = float64(conns)
	v["revnet.frames_in"] = float64(framesIn)
	v["revnet.retries"] = float64(retries)
	v["revnet.errors"] = float64(errs)
	res.extra("revoke.ns_per_alert", replayAlerts(runs), "ns")
	return res, nil
}

// serveEpoch runs one epoch against a fresh in-process server with
// revoked's configuration.
func serveEpoch(ctx context.Context, s *session, seed uint64, epoch int, tr *tracer, parent uint64) (epochRun, error) {
	srv, err := revnet.NewServer(revnet.ServerConfig{
		Revoke:      revokedConfig,
		Shards:      revokedShards,
		Master:      crypto.NewMaster([]byte(revokeMaster)),
		IdleTimeout: 2 * time.Minute,
	})
	if err != nil {
		return epochRun{}, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return epochRun{}, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	l, lerr := drive(ctx, lis.Addr().String(), seed, epoch, s.workers, s.size.revokeEpoch, tr, parent)
	cerr := srv.Close()
	if serr := <-served; cerr == nil {
		cerr = serr
	}
	if err := errors.Join(lerr, cerr, ctx.Err()); err != nil {
		return epochRun{}, err
	}
	return epochRun{l, srv.StatusSnapshot()}, nil
}

// replayAlerts times every epoch's alerts replayed serially into a fresh
// station with revoked's configuration, in nanoseconds per alert.
func replayAlerts(runs []epochRun) float64 {
	var elapsed time.Duration
	n := 0
	for _, r := range runs {
		st := revoke.NewSharded(revokedConfig, revokedShards)
		t0 := time.Now()
		for _, rq := range r.load.log {
			if !rq.query {
				st.HandleAlert(rq.reporter, rq.target)
				n++
			}
		}
		elapsed += time.Since(t0)
	}
	if n == 0 {
		return 0
	}
	return float64(elapsed.Nanoseconds()) / float64(n)
}
