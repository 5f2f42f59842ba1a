// Command autoncsd serves the AutoNCS flow over HTTP: compile jobs are
// submitted as JSON, executed on a bounded worker pool, and answered from a
// content-addressed result cache when the same network/config pair has been
// compiled before. Identical submissions in flight coalesce onto a single
// compile (single-flight keyed by the content address), and jobs carry a
// two-level priority — interactive work jumps the batch queue.
//
// Usage:
//
//	autoncsd                           # serve on :8080, in-memory cache
//	autoncsd -addr 127.0.0.1:0         # ephemeral port (printed on stdout)
//	autoncsd -cache-dir /var/autoncs   # persist results across restarts
//
// Several daemons form a compile fleet: each is given its own base URL
// (-self) and the full membership list (-peers), keys are sharded across
// the members by consistent hashing, and a local cache miss for a key
// owned by a remote peer is answered from that peer's cache (see
// docs/fleet.md):
//
//	autoncsd -addr :8081 -self http://10.0.0.1:8081 \
//	    -peers http://10.0.0.1:8081,http://10.0.0.2:8081,http://10.0.0.3:8081
//
// On SIGINT/SIGTERM the daemon stops accepting work, runs the accepted
// queue to completion (bounded by -drain-timeout), and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (host:port; port 0 picks an ephemeral port)")
		slots        = flag.Int("slots", 0, "concurrent compile slots (0 = 2)")
		queue        = flag.Int("queue", 0, "bounded job-queue depth beyond the running slots (0 = 8)")
		workers      = flag.Int("workers", 0, "worker-pool size per compile (0 = NumCPU/slots)")
		cacheDir     = flag.String("cache-dir", "", "directory for the on-disk result cache (empty = memory only)")
		cacheEntries = flag.Int("cache-entries", 0, "max in-memory cached results (0 = 256, -1 disables the memory layer)")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "how long shutdown waits for in-flight jobs before cancelling them")
		self         = flag.String("self", "", "this daemon's own base URL in the fleet (e.g. http://10.0.0.1:8080; empty disables peering)")
		peers        = flag.String("peers", "", "comma-separated fleet membership base URLs (self is added if absent; requires -self)")
		peerTimeout  = flag.Duration("peer-timeout", 0, "per-attempt peer cache probe timeout (0 = 2s)")
		peerRecovery = flag.Duration("peer-recovery", 0, "how long a dead peer stays out of the ring before a re-probe (0 = 5s)")
		deltaRatio   = flag.Float64("delta-max-ratio", 0, "edit-ratio cutoff for ?base= delta recompiles (0 = 0.1, negative disables delta serving)")
		verbose      = flag.Bool("v", false, "debug-level request and job logging")
	)
	flag.Parse()

	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}
	if len(peerList) > 0 && *self == "" {
		fmt.Fprintln(os.Stderr, "autoncsd: -peers requires -self")
		os.Exit(2)
	}

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	store, err := cache.New(cache.Options{MaxEntries: *cacheEntries, Dir: *cacheDir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "autoncsd: cache:", err)
		os.Exit(2)
	}
	srv, err := server.New(server.Options{
		Slots:                *slots,
		QueueDepth:           *queue,
		CompileWorkers:       *workers,
		DeltaMaxEditRatio:    *deltaRatio,
		Cache:                store,
		Log:                  log,
		Self:                 *self,
		Peers:                peerList,
		PeerTimeout:          *peerTimeout,
		PeerRecoveryInterval: *peerRecovery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "autoncsd:", err)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "autoncsd:", err)
		os.Exit(1)
	}
	// This line is the machine-readable startup handshake: the e2e harness
	// starts the daemon on port 0 and scrapes the resolved address from it.
	fmt.Printf("autoncsd listening on http://%s\n", ln.Addr())

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	select {
	case s := <-sig:
		log.Info("shutting down", "signal", s.String(), "drain_timeout", *drainTimeout)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "autoncsd: serve:", err)
		srv.Close()
		os.Exit(1)
	}

	// Drain first so in-flight wait=1 requests resolve with finished jobs,
	// then close the HTTP side. A second signal aborts immediately.
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	go func() {
		<-sig
		log.Warn("second signal, aborting drain")
		cancel()
	}()
	drainErr := srv.Drain(dctx)
	cancel()

	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil {
		log.Warn("http shutdown", "err", err)
	}
	if drainErr != nil && !errors.Is(drainErr, context.Canceled) {
		fmt.Fprintln(os.Stderr, "autoncsd: drain:", drainErr)
		os.Exit(1)
	}
	log.Info("drained, bye")
}
