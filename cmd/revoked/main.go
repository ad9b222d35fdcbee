// Command revoked runs the networked base station: a long-lived TCP
// service accepting authenticated alert uplinks from beacon nodes and
// answering revocation-status queries (paper §3, "revoking malicious
// beacon nodes"). It runs the same revoke.Sharded station as the
// simulation, with more lock shards.
//
// Usage:
//
//	revoked [-addr HOST:PORT] [-tau N] [-tauprime N] [-shards N]
//	        [-master SECRET] [-idle DUR] [-status HOST:PORT] [-json FILE]
//
// -master seeds key derivation; every node's base-station key derives
// from it exactly as in the simulation, so a simulated deployment and a
// live service provisioned from the same secret interoperate.
//
// -status serves the operational snapshot (revoked set, per-shard stats,
// wire counters) as JSON over HTTP at /status while the service runs.
// -json writes the same snapshot to a file at shutdown ("-" for stdout),
// mirroring 'figures -json'. The service stops on SIGINT/SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"beaconsec/internal/crypto"
	"beaconsec/internal/revnet"
	"beaconsec/internal/revoke"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "revoked:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("revoked", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7764", "TCP address to serve alerts and queries on")
	tau := fs.Int("tau", 5, "report cap τ: alerts accepted per reporter beyond the first")
	tauPrime := fs.Int("tauprime", 3, "alert threshold τ′: a node is revoked when its alert counter exceeds this")
	shards := fs.Int("shards", 16, fmt.Sprintf("lock shards for the revocation counters (rounded up to a power of two, at most %d)", revoke.MaxShards))
	master := fs.String("master", "", "master secret for key derivation (required)")
	idle := fs.Duration("idle", 2*time.Minute, "drop connections idle longer than this (0 = never)")
	status := fs.String("status", "", "optional HTTP address serving the status snapshot at /status")
	jsonOut := fs.String("json", "", "write the final status snapshot as JSON to FILE at shutdown ('-' for stdout)")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *master == "" {
		return errors.New("-master is required: nodes authenticate under keys derived from it")
	}

	srv, err := revnet.NewServer(revnet.ServerConfig{
		Revoke:      revoke.Config{ReportCap: *tau, AlertThreshold: *tauPrime},
		Shards:      *shards,
		Master:      crypto.NewMaster([]byte(*master)),
		IdleTimeout: *idle,
	})
	if err != nil {
		return err
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "revoked: serving on %s (τ=%d, τ′=%d, %d shards)\n",
		lis.Addr(), *tau, *tauPrime, srv.Station().NumShards())

	var statusSrv *http.Server
	statusErr := make(chan error, 1)
	if *status != "" {
		mux := http.NewServeMux()
		mux.Handle("/status", srv)
		statusLis, err := net.Listen("tcp", *status)
		if err != nil {
			lis.Close()
			return fmt.Errorf("status listener: %w", err)
		}
		fmt.Fprintf(out, "revoked: status at http://%s/status\n", statusLis.Addr())
		statusSrv = &http.Server{Handler: mux}
		go func() { statusErr <- statusSrv.Serve(statusLis) }()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	select {
	case <-ctx.Done():
		fmt.Fprintln(out, "revoked: shutting down")
	case err := <-serveErr:
		if err != nil {
			return err
		}
	case err := <-statusErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			srv.Close()
			return fmt.Errorf("status server: %w", err)
		}
	}
	if statusSrv != nil {
		statusSrv.Close()
	}
	if err := srv.Close(); err != nil {
		return err
	}

	if *jsonOut != "" {
		w := out
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := srv.WriteStatus(w); err != nil {
			return err
		}
	}
	return nil
}
