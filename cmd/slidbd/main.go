// Command slidbd runs a durable slidb engine as a daemon with an admin
// plane: Prometheus metrics (/metrics), liveness and readiness probes
// (/healthz, /readyz), a slow-transaction trace (/debug/slowtx) and pprof
// (/debug/pprof/). It opens the data directory, recovers, serves until
// SIGTERM/SIGINT, then drains gracefully: new transactions are rejected,
// in-flight ones finish, the log is allowed to reach durability, a
// checkpoint bounds the next restart, and the engine closes cleanly.
//
// slidb is an embedded engine, so slidbd has no client data plane of its
// own; it is the operational harness — an example of running the engine
// under real monitoring, and the process the CI smoke test drives.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"slidb"
	"slidb/internal/obs"
)

func main() {
	var (
		dataDir      = flag.String("datadir", "", "data directory for the durable engine (required)")
		addr         = flag.String("addr", ":8080", "admin-plane listen address")
		agents       = flag.Int("agents", 8, "agent worker goroutines")
		sli          = flag.Bool("sli", true, "enable speculative lock inheritance")
		elr          = flag.Bool("elr", true, "enable early lock release for commits")
		elrAborts    = flag.Bool("elraborts", true, "enable early lock release for aborts")
		async        = flag.Bool("async", true, "enable the asynchronous commit pipeline")
		profile      = flag.Bool("profile", true, "enable the per-component time profiler (feeds slidb_profile_seconds_total and slow-tx breakdowns)")
		slowtxCap    = flag.Int("slowtx", 0, "slow-transaction trace capacity (0 = default)")
		slowtxWindow = flag.Duration("slowtx-window", 0, "slow-transaction trace retention window (0 = default)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight transactions and log durability")
	)
	flag.Parse()
	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "slidbd: -datadir is required")
		flag.Usage()
		os.Exit(2)
	}

	eng, err := slidb.OpenAt(*dataDir, slidb.Config{
		Agents:                 *agents,
		SLI:                    *sli,
		EarlyLockRelease:       *elr,
		EarlyLockReleaseAborts: *elrAborts,
		AsyncCommit:            *async,
		Profile:                *profile,
	})
	if err != nil {
		log.Fatalf("slidbd: open %s: %v", *dataDir, err)
	}
	// First Observe call fixes the options, so set the tracer shape before
	// newServer (whose gauge registration calls Observe too).
	eng.ObserveWith(obs.ObserverOptions{
		SlowTxCapacity: *slowtxCap,
		SlowTxWindow:   *slowtxWindow,
	})
	rs := eng.RecoveryStats()
	log.Printf("slidbd: recovered %s: checkpoint lsn=%d winners=%d losers=%d records=%d",
		*dataDir, rs.CheckpointLSN, rs.Winners, rs.Losers, rs.LogRecordsScanned)

	srv := newServer(eng)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.ListenAndServe() }()
	log.Printf("slidbd: admin plane on %s (/metrics /healthz /readyz /debug/slowtx /debug/pprof/)", *addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	select {
	case sig := <-sigCh:
		log.Printf("slidbd: %v, draining (timeout %s)", sig, *drainTimeout)
	case err := <-httpErr:
		log.Printf("slidbd: admin listener failed: %v, shutting down", err)
	}

	exitCode := 0
	if err := srv.Shutdown(*drainTimeout); err != nil {
		log.Printf("slidbd: shutdown: %v", err)
		exitCode = 1
	}
	// The admin plane stays up through the drain so probes and final scrapes
	// see the terminal state; it goes down last.
	httpSrv.Close()
	log.Printf("slidbd: stopped")
	os.Exit(exitCode)
}
