// Command distlapd serves the distributed Laplacian solver over HTTP: load
// a graph once (paying instance preparation — trees, cluster covers,
// preconditioner state — exactly once), then issue solve, multi-RHS batch,
// electrical-flow and MST requests against the cached instance, each paying
// only iteration cost. Instances live in a byte-budgeted LRU cache.
//
// Usage:
//
//	distlapd [-addr :8090] [-cache-bytes 67108864] [-access-log PATH] [-debug-addr :8091]
//	distlapd -selftest
//
// The API is JSON over stdlib net/http (see internal/service):
//
//	POST   /v1/graphs             {"id":"g1","graph":{"family":"grid","size":100},"seed":1}
//	GET    /v1/graphs
//	DELETE /v1/graphs/{id}
//	POST   /v1/graphs/{id}/solve  {"b":[...]} or {"bs":[[...],[...]]}
//	POST   /v1/graphs/{id}/flow   {"s":0,"t":5}
//	POST   /v1/graphs/{id}/mst    {}
//
// Observability (see internal/obs and README "Operating distlapd"):
//
//	GET /metrics      Prometheus text; deterministic families above the
//	                  wall-clock marker, latency/uptime below it
//	GET /v1/statusz   JSON status: deterministic counters, cache occupancy
//	                  vs budget, latency quantiles, build info
//	GET /v1/healthz   liveness + saturation + cache occupancy/evictions
//
// -access-log writes one JSON line per served API request ("-" for stderr,
// otherwise an append-only file); the "id" field matches the X-Request-Id
// response header. -debug-addr serves net/http/pprof on a second listener
// that is never exposed on the API address.
//
// Responses are deterministic: identical requests against daemons started
// with identical configuration produce byte-identical JSON, and the
// deterministic /metrics section is byte-identical across daemons serving
// the same request sequence.
//
// -selftest runs service.Server.SelfTest: the full request cycle
// in-process (no sockets), then the serving-metrics identities
// (per-endpoint counters summing to totals, histogram counts matching
// request counts, cache hits + misses matching instance lookups). It exits
// nonzero on any mismatch; CI runs it as the daemon smoke test.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof" // registers debug handlers on DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"distlap/internal/service"
)

// shutdownGrace bounds how long a terminating daemon waits for in-flight
// requests to drain before closing their connections.
const shutdownGrace = 30 * time.Second

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	cacheBytes := flag.Int64("cache-bytes", service.DefaultCacheBytes, "instance cache budget in bytes")
	accessLog := flag.String("access-log", "", `access log destination: "" disables, "-" is stderr, anything else appends to that file`)
	debugAddr := flag.String("debug-addr", "", "optional second listen address serving net/http/pprof (never exposed on -addr)")
	selftest := flag.Bool("selftest", false, "run the in-process request-cycle and metrics smoke test and exit")
	flag.Parse()

	logDst, closeLog, err := openAccessLog(*accessLog)
	if err != nil {
		log.Fatal(err)
	}
	defer closeLog()

	srv := service.New(service.Config{CacheBytes: *cacheBytes, AccessLog: logDst})
	if *selftest {
		if err := srv.SelfTest(); err != nil {
			fmt.Fprintln(os.Stderr, "selftest:", err)
			os.Exit(1)
		}
		fmt.Println("distlapd selftest ok")
		return
	}
	if *debugAddr != "" {
		go serveDebug(*debugAddr)
	}
	if err := serve(srv, *addr, *cacheBytes); err != nil {
		log.Fatal(err)
	}
	if err := srv.AccessLogErr(); err != nil {
		log.Fatalf("distlapd: access log failed mid-run: %v", err)
	}
}

// openAccessLog resolves the -access-log flag into a writer plus a close
// hook: "" disables logging (nil writer — a typed nil would defeat the
// service's nil check), "-" selects stderr, anything else appends to the
// named file.
func openAccessLog(dst string) (w io.Writer, closeFn func(), err error) {
	switch dst {
	case "":
		return nil, func() {}, nil
	case "-":
		return os.Stderr, func() {}, nil
	}
	f, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("distlapd: access log: %w", err)
	}
	return f, func() { _ = f.Close() }, nil
}

// serveDebug serves net/http/pprof (DefaultServeMux) on its own listener;
// keeping it off the API address means profiling is opt-in and never
// reachable from the serving port.
func serveDebug(addr string) {
	log.Printf("distlapd: pprof listening on %s", addr)
	dbg := &http.Server{Addr: addr, ReadHeaderTimeout: 5 * time.Second}
	if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("distlapd: pprof server: %v", err)
	}
}

// serve runs the hardened HTTP server until SIGINT/SIGTERM, then drains
// in-flight requests through a bounded graceful Shutdown so a rolling
// restart never truncates a response mid-solve.
func serve(srv *service.Server, addr string, cacheBytes int64) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hs := srv.NewHTTPServer(addr)
	errc := make(chan error, 1)
	go func() {
		log.Printf("distlapd listening on %s (cache budget %d bytes)", addr, cacheBytes)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return fmt.Errorf("distlapd: %w", err)
	case <-ctx.Done():
	}
	log.Printf("distlapd: shutdown signal received, draining (up to %s)", shutdownGrace)
	sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("distlapd: shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("distlapd: %w", err)
	}
	log.Printf("distlapd: drained, exiting")
	return nil
}
