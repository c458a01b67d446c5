// Command gpd is the long-running analysis service: one process keeps the
// artifact store warm and serves gadget-count/analyze/plan requests from N
// clients over HTTP (TCP and/or a unix socket). Concurrent requests that
// need the same artifact compute it once through the store's per-stage
// singleflight, and a per-stage gate bounds compute concurrency so a burst
// of clients queues instead of oversubscribing.
//
// Usage:
//
//	gpd -socket /tmp/gpd.sock [-listen :7209] [-cachedir DIR] [-parallel N]
//	    [-pprof localhost:6060]
//
// Clients: gp -server unix:/tmp/gpd.sock ..., gadgetcount -server ...,
// or any HTTP client POSTing JSON to /run (the response is a JSONL stream
// of stage events followed by the result). GET /stats reports per-stage
// hit rates and pool depths; GET /healthz flips to 503
// while draining. SIGTERM/SIGINT starts a graceful drain: new requests are
// refused, in-flight ones finish (up to -drain), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the -pprof listener's DefaultServeMux
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/cliutil"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
	"github.com/nofreelunch/gadget-planner/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gpd:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "", "TCP listen address (e.g. :7209; empty disables TCP)")
	socket := flag.String("socket", "", "unix socket path (empty disables the socket listener)")
	pool := flag.Int("pool", 0, "per-stage compute slots (0 = same as -parallel)")
	memLimit := flag.Int("memlimit", 0, "memory-tier entry limit, LRU-evicted (0 = unbounded)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-drain window after SIGTERM before in-flight work is canceled")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	sf := cliutil.RegisterStore(flag.CommandLine).WithParallel(flag.CommandLine)
	flag.Parse()

	if *pprofAddr != "" {
		// The service mux is private (serve.Server.Handler); profiling gets
		// its own listener on the DefaultServeMux that net/http/pprof
		// registered on, so /debug/pprof never shares a port with clients.
		go func() {
			log.Printf("gpd: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("gpd: pprof listener: %v", err)
			}
		}()
	}

	if *listen == "" && *socket == "" {
		return fmt.Errorf("need -listen and/or -socket")
	}

	store, err := sf.Open()
	if err != nil {
		return err
	}
	par := sf.Parallelism()
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	slots := *pool
	if slots <= 0 {
		slots = par
	}
	store.WithGate(pipeline.NewGate(slots, nil))
	if *memLimit > 0 {
		store.LimitMemory(*memLimit)
	}

	srv := serve.NewServer(store, par)
	// Every request context derives from this one, which is canceled only
	// when the drain window expires.
	computeCtx, cancelCompute := context.WithCancel(context.Background())
	defer cancelCompute()
	hsrv := &http.Server{
		Handler:     srv.Handler(),
		BaseContext: func(net.Listener) context.Context { return computeCtx },
	}
	var listeners []net.Listener
	if *socket != "" {
		// A stale socket file from an unclean shutdown would block the bind.
		if err := os.Remove(*socket); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		l, err := net.Listen("unix", *socket)
		if err != nil {
			return err
		}
		defer os.Remove(*socket)
		listeners = append(listeners, l)
		log.Printf("gpd: serving on unix:%s", *socket)
	}
	if *listen != "" {
		l, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		listeners = append(listeners, l)
		log.Printf("gpd: serving on %s", l.Addr())
	}
	log.Printf("gpd: parallelism=%d pool=%d %s", par, slots, store.StatsLine())

	serveErr := make(chan error, len(listeners))
	for _, l := range listeners {
		go func(l net.Listener) { serveErr <- hsrv.Serve(l) }(l)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}

	// Graceful drain: refuse new work, let in-flight requests finish, then
	// cancel whatever is still computing when the window closes.
	log.Printf("gpd: draining (up to %s)...", *drain)
	srv.SetDraining(true)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	shutdownErr := hsrv.Shutdown(dctx)
	cancelCompute()
	log.Printf("gpd: %s", store.StatsLine())
	if shutdownErr != nil && !errors.Is(shutdownErr, http.ErrServerClosed) {
		return shutdownErr
	}
	return nil
}
