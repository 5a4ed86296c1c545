// Command walberla-serve is the simulation-as-a-service daemon: it owns
// a shared stepping pool and multiplexes many concurrent simulation
// sessions over it. Scenarios (the typed JSON schema of
// internal/scenario) arrive over an HTTP+JSON session API; sessions are
// stepped, steered, snapshotted, suspended to coordinated checkpoint
// sets and revived bit-identically. See docs/SERVE.md for the API
// reference.
//
// Usage:
//
//	walberla-serve -addr localhost:8977
//	curl -X POST localhost:8977/v1/sessions -d @scenario.json
//	curl -X POST localhost:8977/v1/sessions/s-000001/step -d '{"steps":100}'
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"walberla/internal/serve"
	"walberla/internal/telemetry"
)

func main() {
	var (
		addr        = flag.String("addr", "localhost:8977", "HTTP listen address for the session API")
		maxSessions = flag.Int("max-sessions", 8, "admission control: maximum resident sessions (suspended sessions do not count)")
		maxSteppers = flag.Int("max-concurrent-steps", 0, "fair-share gate width: sessions stepping at once (0 = GOMAXPROCS/2)")
		dataDir     = flag.String("data", "", "session spill directory for checkpoint sets and VTK frames (empty = temp dir)")
	)
	flag.Parse()

	metrics := telemetry.NewMetricsServer()
	srv, err := serve.NewServer(serve.Config{
		MaxSessions:        *maxSessions,
		MaxConcurrentSteps: *maxSteppers,
		DataDir:            *dataDir,
		Metrics:            metrics,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := serve.NewHTTPServer(srv)
	fmt.Printf("walberla-serve listening on http://%s (sessions: %d resident max)\n",
		ln.Addr(), *maxSessions)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
		fmt.Println("\nshutting down: draining requests, destroying sessions")
	case err := <-done:
		fatal(err)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		httpSrv.Close()
	}
	if err := srv.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "walberla-serve:", err)
	os.Exit(1)
}
