package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"beaconsec/internal/deploy"
	"beaconsec/internal/scenario"
)

// metroEventsPerNode is what a metro run fires per node: three probe
// rounds, each a probe plus its reply or its timeout.
const metroEventsPerNode = 6

// metroRun is one parsed "beaconsim -metro" report.
type metroRun struct {
	events   int64
	identity string // the report without its machine-dependent lines
}

// parseMetro reads a beaconsim metro report. The queue, events and
// memory lines depend on the worker count and the machine; every other
// line is pinned identical across worker counts.
func parseMetro(out []byte) (metroRun, error) {
	var run metroRun
	var identity []string
	found := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		switch strings.SplitN(line, " ", 2)[0] {
		case "events":
			if _, err := fmt.Sscanf(line, "events %d fired", &run.events); err != nil {
				return run, fmt.Errorf("events line %q: %v", line, err)
			}
			found = true
		case "queue", "memory":
		default:
			identity = append(identity, line)
		}
	}
	if !found {
		return run, fmt.Errorf("no events line in %q", out)
	}
	run.identity = strings.Join(identity, "\n")
	return run, nil
}

func runMetro(ctx context.Context, s *session, seed uint64) (*result, error) {
	res := newResult()
	nodes := s.size.metroNodes
	seedArg := strconv.FormatUint(seed, 10)
	workers := strconv.Itoa(s.workers)
	// Set-up: a metro process with so few nodes that start-up dominates.
	setup := &prober{bin: s.bins.beaconsim, args: []string{"-metro", "-nodes", "1000", "-metro-workers", workers, "-seed", seedArg}}
	// The first run is the single-thread baseline at K=1; the rest run
	// at K=NumCPU and must match it.
	var serial *metroRun
	var serialWall float64
	var walls, rss []float64
	err := s.repeat(ctx, 2, func(i int) error {
		if err := setup.batch(ctx, res); err != nil {
			return err
		}
		k := s.workers
		if i == 0 {
			k = 1
		}
		res.attempted++
		c, err := runChild(ctx, s.bins.beaconsim, "-metro", "-nodes", strconv.FormatInt(nodes, 10),
			"-metro-workers", strconv.Itoa(k), "-seed", seedArg)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var run metroRun
		if err == nil {
			run, err = parseMetro(c.stdout)
		}
		if err == nil {
			err = checkMetro(run, nodes, serial)
		}
		if err != nil {
			res.failed++
			res.check("K=%d: %v", k, err)
			return nil
		}
		if i == 0 {
			serial, serialWall = &run, c.wall.Seconds()
			return nil
		}
		walls = append(walls, c.wall.Seconds())
		rss = append(rss, c.rssMB)
		return nil
	})
	if err == nil {
		err = setup.batch(ctx, res)
	}
	if err != nil {
		return nil, err
	}
	events := float64(metroEventsPerNode * nodes)
	res.values["setup_s"] = median(setup.walls)
	res.values["wall_s"] = median(walls)
	// One K=1 run plus one typical K=N run, so a slower serial kernel
	// shows as surely as a slower sharded one.
	res.values["throughput_per_s"] = 2 * events / (serialWall + median(walls))
	res.values["peak_rss_mb"] = median(rss)
	res.extra("serial_events_per_s", events/serialWall, "1/s")
	res.extra("events_per_s", events/median(walls), "1/s")
	metroScaling(res, serialWall, median(walls), s.workers)
	return res, nil
}

// metroScaling records the K=N over K=1 speed-up, which is only a
// parallel speed-up when the process may run K threads at once.
func metroScaling(res *result, serialWall, parallelWall float64, k int) {
	if procs := runtime.GOMAXPROCS(0); procs < k {
		res.notes = append(res.notes, fmt.Sprintf("no K=%d scaling ratio: GOMAXPROCS=%d", k, procs))
		return
	}
	res.extra(fmt.Sprintf("scaling_k%d", k), serialWall/parallelWall, "x")
}

// checkMetro checks the event count and, after the first run, identity
// with the K=1 run.
func checkMetro(run metroRun, nodes int64, serial *metroRun) error {
	if run.events != metroEventsPerNode*nodes {
		return fmt.Errorf("%d events, want %d", run.events, metroEventsPerNode*nodes)
	}
	if serial != nil && run.identity != serial.identity {
		return fmt.Errorf("output differs from K=1:\n%s\nwant:\n%s", run.identity, serial.identity)
	}
	return nil
}

func traceMetro(ctx context.Context, s *session, seed uint64, tr *tracer) (*result, error) {
	res := newResult()
	nodes := s.size.metroNodes
	cfg := scenario.MetroPaper(nodes, seed)
	if err := tr.start(); err != nil {
		return nil, err
	}
	root := tr.begin("metro-1m", 0)
	defer root.end()

	t0 := time.Now()
	sp := tr.begin("deploy.stream", root.id)
	streamed, err := streamDeployment(cfg.Deploy)
	sp.end()
	if err != nil {
		return nil, err
	}
	res.extra("deploy.stream_s", time.Since(t0).Seconds(), "s")
	if streamed != nodes {
		res.check("deployment streamed %d nodes, want %d", streamed, nodes)
	}

	var serial *metroRun
	var serialWall float64
	var walls []float64
	err = s.repeat(ctx, 2, func(i int) error {
		k := s.workers
		if i == 0 {
			k = 1
		}
		c := cfg
		c.Workers = k
		res.attempted++
		sp := tr.begin(fmt.Sprintf("scenario.run_metro%d", k), root.id)
		cpu0, t0 := selfCPU(), time.Now()
		r, err := scenario.RunMetro(ctx, c)
		wall, cpu := time.Since(t0).Seconds(), (selfCPU() - cpu0).Seconds()
		sp.end()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var run metroRun
		if err == nil {
			var id []byte
			id, err = json.Marshal(r.Identity())
			run = metroRun{events: int64(r.Sim.Events), identity: string(id)}
		}
		if err == nil {
			err = checkMetro(run, nodes, serial)
		}
		if err != nil {
			res.failed++
			res.check("K=%d: %v", k, err)
			return nil
		}
		res.simEvents += r.Sim.Events
		if i == 0 {
			serial, serialWall = &run, wall
			res.values["sim.events"] = float64(r.Sim.Events)
			res.values["sim.cancel_ratio"] = ratio(r.Sim.Cancelled, r.Sim.Scheduled)
			res.values["sim.max_pending"] = float64(r.Sim.MaxPending)
			return nil
		}
		if len(walls) == 0 && selfCPU() > 0 {
			res.values["scenario.idle_share"] = 1 - cpu/(wall*float64(k))
		}
		walls = append(walls, wall)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.extra("wall_s", median(walls), "s")
	res.extra("serial_events_per_s", float64(metroEventsPerNode*nodes)/serialWall, "1/s")
	metroScaling(res, serialWall, median(walls), s.workers)
	return res, nil
}

// streamDeployment builds the count grid and streams the deployment once,
// the deploy layer's share of a metro run, and returns the nodes seen.
func streamDeployment(cfg deploy.MetroConfig) (int64, error) {
	if _, err := cfg.BuildGrid(); err != nil {
		return 0, err
	}
	var n int64
	err := cfg.Stream(func(chunk []deploy.MetroNode) error {
		n += int64(len(chunk))
		return nil
	})
	return n, err
}
