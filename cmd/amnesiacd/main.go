// Command amnesiacd is the evaluation-as-a-service daemon: it serves the
// internal/server HTTP API (job queue, result cache, SSE progress) over
// the harness, turning one-shot CLI evaluations into a long-running,
// cacheable, cancellable service.
//
// Usage:
//
//	amnesiacd                          # listen on :8080
//	amnesiacd -addr 127.0.0.1:0       # random port (printed on stdout)
//	amnesiacd -queue 256 -job-workers 4 -cache 512
//	amnesiacd -store-dir /var/lib/amnesiac -store-max-bytes 268435456
//	amnesiacd -advertise http://10.0.0.1:8080 \
//	          -peers http://10.0.0.2:8080,http://10.0.0.3:8080
//	amnesiacd -version
//
// -store-dir enables the durable result store: computed reports and
// prepared-image metadata survive restarts. -peers forms a replica set:
// jobs route to their key's ring owner, and a dead owner's key range
// falls back to local execution.
//
// SIGTERM/SIGINT drain gracefully: the daemon stops accepting jobs,
// finishes (or, past -drain-timeout, cancels) the ones in flight, flushes
// cache statistics to the log, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/amnesiac-sim/amnesiac/internal/buildinfo"
	"github.com/amnesiac-sim/amnesiac/internal/cliutil"
	"github.com/amnesiac-sim/amnesiac/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a random port)")
		queueCap     = flag.Int("queue", 64, "job queue capacity (backpressure bound)")
		jobWorkers   = flag.Int("job-workers", 2, "jobs executing concurrently")
		simWorkers   = flag.Int("workers", 0, "harness workers per job (0 = GOMAXPROCS, 1 = serial)")
		cacheEntries = flag.Int("cache", 128, "result cache capacity (reports)")
		storeDir     = flag.String("store-dir", "", "durable result store directory (empty = memory-only)")
		storeMax     = flag.Int64("store-max-bytes", 256<<20, "durable store size bound in bytes")
		advertise    = flag.String("advertise", "", "this replica's base URL as peers see it (required with -peers)")
		peersCSV     = flag.String("peers", "", "comma-separated peer replica base URLs")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs at shutdown")
		version      = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String())
		return
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)
	peers, peersErr := cliutil.BaseURLs("amnesiacd", "-peers", *peersCSV)
	if err := cliutil.All(
		cliutil.Workers("amnesiacd", *simWorkers),
		cliutil.Positive("amnesiacd", "-queue", *queueCap),
		cliutil.Positive("amnesiacd", "-job-workers", *jobWorkers),
		cliutil.Positive("amnesiacd", "-cache", *cacheEntries),
		cliutil.Bytes("amnesiacd", "-store-max-bytes", *storeMax),
		cliutil.BaseURL("amnesiacd", "-advertise", *advertise),
		peersErr,
	); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(peers) > 0 && *advertise == "" {
		fmt.Fprintln(os.Stderr, "amnesiacd: -peers requires -advertise (this replica's own base URL)")
		os.Exit(2)
	}

	srv, err := server.New(server.Config{
		QueueCap:      *queueCap,
		JobWorkers:    *jobWorkers,
		SimWorkers:    *simWorkers,
		CacheEntries:  *cacheEntries,
		StoreDir:      *storeDir,
		StoreMaxBytes: *storeMax,
		Self:          *advertise,
		Peers:         peers,
		Log:           logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "amnesiacd: %v\n", err)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("amnesiacd: %v", err)
	}
	// Machine-readable first line so scripts (and CI) can scrape the
	// resolved address even when -addr requested port 0.
	fmt.Printf("amnesiacd listening on %s\n", ln.Addr())
	logger.Printf("amnesiacd: %s", buildinfo.String())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		logger.Printf("amnesiacd: %v received; draining (timeout %s)", sig, *drainTimeout)
	case err := <-serveErr:
		logger.Fatalf("amnesiacd: serve: %v", err)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Printf("amnesiacd: drain: %v", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("amnesiacd: http shutdown: %v", err)
	}
	logger.Printf("amnesiacd: bye")
}
