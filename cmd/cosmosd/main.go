// Command cosmosd runs a COSMOS service endpoint: an in-process overlay
// of brokers and processors behind a TCP API (see internal/transport).
// Clients (cmd/cosmosctl or cosmos.Dial) register source streams,
// publish tuples, and submit CQL continuous queries whose results stream
// back over the connection.
//
// By default the daemon assembles a core.LiveSystem: goroutine-per-
// broker routing with sharded execution runtimes (-workers) publishing
// results directly into the network, so remote subscribers receive
// results while ingest continues — no stabilisation barrier on the
// steady-state path. -sim falls back to the deterministic synchronous
// system (the differential reference; useful for reproducible traces).
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: it stops the
// listener, drains in-flight subscriptions onto the wire, notifies every
// subscriber (MsgEnd), and closes the system instead of exiting
// mid-delivery.
//
//	cosmosd -listen :7654 -nodes 64 -processors 2 -workers 4 -seed 1
package main

import (
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cosmos/internal/core"
	"cosmos/internal/merge"
	"cosmos/internal/obs"
	"cosmos/internal/transport"
)

func main() {
	var (
		listen     = flag.String("listen", ":7654", "TCP listen address")
		nodes      = flag.Int("nodes", 64, "overlay size")
		processors = flag.Int("processors", 1, "number of processor nodes")
		workers    = flag.Int("workers", 4, "execution workers per processor (live system)")
		seed       = flag.Int64("seed", 1, "topology seed")
		mode       = flag.String("mode", "union", "merge mode: union or hull")
		placement  = flag.String("placement", "least-loaded", "query placement: least-loaded, nearest, round-robin")
		noMerge    = flag.Bool("no-merge", false, "disable query merging (baseline)")
		sim        = flag.Bool("sim", false, "serve the synchronous simulated system instead of the live one")
		idle       = flag.Duration("idle-timeout", 90*time.Second,
			"drop connections silent for this long (clients heartbeat every 15s; 0 disables)")
		linger = flag.Duration("session-linger", 2*time.Minute,
			"keep an abruptly dropped resilient session's subscriptions resumable for this long (0 disables)")
		metricsAddr = flag.String("metrics-addr", "",
			"serve /metrics (JSON), /debug/vars and /debug/pprof on this address (empty disables)")
		sampleEvery = flag.Int("sample-every", 0,
			"latency sampling period: time every Nth event per stage (0 = default, negative disables)")
		traceEvery = flag.Int("trace-every", 0,
			"trace every Nth published tuple through the pipeline (0 disables)")
		traceSeed = flag.Int64("trace-seed", 0, "phase offset for the systematic trace sampler")
	)
	flag.Parse()

	opts := core.Options{
		Nodes:          *nodes,
		Processors:     *processors,
		Seed:           *seed,
		DisableMerging: *noMerge,
		Obs: obs.Options{
			SampleEvery: *sampleEvery,
			TraceEvery:  *traceEvery,
			TraceSeed:   *traceSeed,
		},
	}
	if *mode == "hull" {
		opts.Mode = merge.ConvexHull
	}
	switch *placement {
	case "nearest":
		opts.Placement = core.NearestToUser
	case "round-robin":
		opts.Placement = core.RoundRobin
	case "least-loaded":
		opts.Placement = core.LeastLoaded
	default:
		log.Fatalf("cosmosd: unknown placement %q", *placement)
	}

	var (
		sys      *core.System
		srvOpts  []transport.ServerOption
		transprt = "live"
	)
	srvOpts = append(srvOpts,
		transport.WithIdleTimeout(*idle),
		transport.WithSessionLinger(*linger))
	if *sim {
		transprt = "sim"
		s, err := core.NewSystem(opts)
		if err != nil {
			log.Fatalf("cosmosd: %v", err)
		}
		sys = s
	} else {
		opts.ExecWorkers = *workers
		ls, err := core.NewLiveSystem(opts)
		if err != nil {
			log.Fatalf("cosmosd: %v", err)
		}
		sys = ls.System
		srvOpts = append(srvOpts, transport.WithSystemClose(ls.Close))
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("cosmosd: %v", err)
	}
	log.Printf("cosmosd: listening on %s (%s transport, %d nodes, %d processors, merging=%v)",
		ln.Addr(), transprt, *nodes, *processors, !*noMerge)
	srv := transport.NewServer(sys, srvOpts...)

	if *metricsAddr != "" {
		// The metrics surface reads lock-free snapshots, so serving it
		// never blocks the data path; pprof rides the same mux.
		handler := obs.Handler(map[string]func() any{
			"stats":  func() any { st := sys.StatsSnapshot(); ws := srv.WireStats(); st.Wire = &ws; return st },
			"traces": func() any { return sys.Obs().Traces() },
		})
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("cosmosd: metrics listener: %v", err)
		}
		log.Printf("cosmosd: metrics on http://%s/metrics (pprof at /debug/pprof/)", mln.Addr())
		go func() {
			if err := http.Serve(mln, handler); err != nil {
				log.Printf("cosmosd: metrics server: %v", err)
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		sig := <-sigc
		log.Printf("cosmosd: %v: draining subscriptions and shutting down", sig)
		if err := srv.Shutdown(); err != nil {
			log.Printf("cosmosd: shutdown: %v", err)
		}
	}()

	if err := srv.Serve(ln); err != nil {
		log.Fatalf("cosmosd: %v", err)
	}
	// Serve returns nil only when the server was stopped — here, only
	// the signal handler does that; wait for its drain to finish.
	<-shutdownDone
	log.Printf("cosmosd: bye")
}
