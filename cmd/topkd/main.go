// Command topkd serves a topk.Store over HTTP/JSON — the network face
// of the serving stack. Handlers (internal/serve) are written purely
// against the topk.Store interface, so the backend is a startup flag:
//
//   - the default concurrent Sharded router (net/http's per-connection
//     goroutines become router concurrency, no extra locking),
//   - a single sequential Index guarded by one mutex for comparison
//     runs (-backend single),
//   - or a CLUSTER GATEWAY (-gateway nodeA,nodeB,...): the same /v1
//     surface backed by a topk.Cluster that score-routes writes to
//     remote member topkd processes and reads them top score band
//     first. Members declare their score band with -range lo:hi and the
//     gateway discovers the fleet layout from each member's /v1/range.
//
// Every route is versioned under /v1; any other path is a 404.
//
//	$ topkd -addr :8080 -shards 8 -n 100000 -maintenance 30s
//	$ curl -s 'localhost:8080/v1/topk?x1=100&x2=200&k=3'
//	$ curl -s 'localhost:8080/v1/topk?x1=100&x2=200&k=3&offset=3'   # page 2
//	$ curl -s localhost:8080/v1/metrics                             # Prometheus text format
//	$ curl -s localhost:8080/v1/epoch                               # topology epoch (poll it)
//	$ curl -s -X POST localhost:8080/v1/insert -d '{"x":150.5,"score":9.9}'
//	$ curl -s -X POST localhost:8080/v1/batch -d '{"ops":[
//	      {"op":"insert","x":1.5,"score":7.25},
//	      {"op":"query","x1":0,"x2":100,"k":5,"offset":5}]}'
//
// Cluster quickstart (two members + gateway; see README for more):
//
//	$ topkd -addr :8081 -range :5        # member owning scores (-Inf, 5)
//	$ topkd -addr :8082 -range 5:        # member owning scores [5, +Inf)
//	$ topkd -addr :8080 -gateway localhost:8081,localhost:8082
//
// On SIGINT/SIGTERM the server drains in-flight requests (bounded by
// -drain), stops background loops (maintenance or cluster health
// checking) and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	topk "repro"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	backend := flag.String("backend", "sharded", "index backend: sharded | single")
	gateway := flag.String("gateway", "", "comma-separated member addresses; serve as a cluster gateway instead of a local store")
	rangeFlag := flag.String("range", "", "score band this member owns, as lo:hi with open ends empty (e.g. :5, 5:10, 10:)")
	shards := flag.Int("shards", 8, "maximum shard count (sharded backend)")
	b := flag.Int("B", 64, "block size in words per shard disk")
	m := flag.Int("M", 0, "buffer-pool words (fleet total when sharded; 0 = default)")
	minMerge := flag.Int("min-merge", 0, "shard size floor of the delete-triggered merge policy (0 = 256, half the smallest shard that splits; negative disables merging)")
	maintenance := flag.Duration("maintenance", 0, "background maintenance interval for the sharded backend (merge/split sweeps while idle; 0 disables)")
	n := flag.Int("n", 0, "synthetic points to generate for the preload (a -range member keeps those in its band)")
	seed := flag.Int64("seed", 1, "preload workload seed")
	polylogF := flag.Int("polylog-f", 8, "§3.3 tree fanout f (0 = the paper's √(B·lg n))")
	polylogLeafCap := flag.Int("polylog-leaf-cap", 2048, "§3.3 leaf capacity (0 = the paper's f·l·B)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request timeout of gateway->member calls")
	healthEvery := flag.Duration("health-interval", 2*time.Second, "member health-probe interval in gateway mode")
	drain := flag.Duration("drain", 10*time.Second, "in-flight request drain budget on SIGINT/SIGTERM")
	traceSample := flag.Float64("trace-sample", 0, "fraction of header-less requests to trace (requests carrying X-Topkd-Trace are always traced; 1 traces everything)")
	slowQuery := flag.Duration("slow-query", 0, "log requests at least this slow at warn level (0 disables)")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logLevel := flag.String("log-level", "info", "log level: debug | info | warn | error (per-request logs are debug)")
	batchWindow := flag.Duration("batch-window", 0, "group-commit window: coalesce concurrent single-op writes into ApplyBatch groups flushed after at most this long (0 disables batching unless -async-ack)")
	batchMax := flag.Int("batch-max", 0, "group-commit size trigger: flush a pending group at this many ops without waiting the window (0 = 256)")
	asyncAck := flag.Bool("async-ack", false, "acknowledge writes with 202 Accepted + a pollable /v1/outcome/{id} instead of waiting for the group commit (implies batching)")
	flag.Parse()

	level, err := parseLevel(*logLevel)
	if err != nil {
		log.Fatalf("topkd: -log-level: %v", err)
	}
	if err := validateTraceSample(*traceSample); err != nil {
		log.Fatalf("topkd: -trace-sample: %v", err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	tel := obs.New(obs.Options{
		Logger:     logger,
		SampleRate: *traceSample,
		SlowQuery:  *slowQuery,
	})

	cfg := topk.ShardedConfig{
		Config: topk.Config{
			BlockWords:     *b,
			MemoryWords:    *m,
			PolylogF:       *polylogF,
			PolylogLeafCap: *polylogLeafCap,
		},
		Shards:              *shards,
		MinMerge:            *minMerge,
		MaintenanceInterval: *maintenance,
	}
	var opts serve.Options
	lo, hi := math.Inf(-1), math.Inf(1)
	if *rangeFlag != "" {
		if lo, hi, err = parseRange(*rangeFlag); err != nil {
			log.Fatalf("topkd: -range: %v", err)
		}
		opts.Lo, opts.Hi = lo, hi
	}

	var st topk.Store
	if *gateway != "" {
		st, err = topk.NewCluster(topk.ClusterConfig{
			Members:        strings.Split(*gateway, ","),
			Timeout:        *timeout,
			HealthInterval: *healthEvery,
			Logger:         logger,
		})
	} else {
		st, err = newStore(*backend, cfg, preload(*n, *seed, lo, hi))
	}
	if err != nil {
		log.Fatalf("topkd: %v", err)
	}
	// Group-commit write path: wrap the store so concurrent single-op
	// writes coalesce into ApplyBatch groups. -async-ack implies
	// batching (a 202 needs somewhere to park the outcome); the window
	// then defaults inside NewBatched.
	if *batchWindow > 0 || *batchMax > 0 || *asyncAck {
		st, err = topk.NewBatched(st, topk.BatchedConfig{
			Window:   *batchWindow,
			MaxBatch: *batchMax,
		})
		if err != nil {
			log.Fatalf("topkd: batcher: %v", err)
		}
		opts.AsyncAck = *asyncAck
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("topkd: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	mode := *backend
	if *gateway != "" {
		mode = fmt.Sprintf("gateway(%s)", *gateway)
	}
	opts.Obs = tel
	var h http.Handler = serve.New(st, opts)
	if *pprofFlag {
		h = withPprof(h)
	}
	logger.Info("serving",
		slog.String("backend", mode),
		slog.String("addr", ln.Addr().String()),
		slog.Int("n", st.Len()),
		slog.String("band", *rangeFlag),
		slog.Int("shards", *shards),
		slog.Duration("maintenance", *maintenance),
		slog.Float64("trace_sample", *traceSample),
		slog.Duration("slow_query", *slowQuery),
		slog.Bool("pprof", *pprofFlag),
		slog.Duration("batch_window", *batchWindow),
		slog.Int("batch_max", *batchMax),
		slog.Bool("async_ack", *asyncAck),
	)
	if err := serveLoop(ctx, &http.Server{Handler: h}, ln, *drain, tel, logger); err != nil {
		log.Fatalf("topkd: %v", err)
	}
	// Stop background loops (sharded maintenance, cluster health
	// prober) after the last in-flight request has drained.
	if c, ok := st.(interface{ Close() error }); ok {
		if err := c.Close(); err != nil {
			log.Fatalf("topkd: close: %v", err)
		}
	}
	logger.Info("exiting")
}

// parseLevel maps a -log-level flag value to its slog level.
// validateTraceSample rejects sample rates that cannot mean anything:
// NaN, negative, or above 1. Silently accepting them made -trace-sample
// 1.5 look like "sample more" when it just clamps to everything, and
// NaN sampled nothing while looking enabled.
func validateTraceSample(v float64) error {
	if math.IsNaN(v) {
		return fmt.Errorf("NaN is not a sample rate (want a fraction in [0, 1])")
	}
	if v < 0 || v > 1 {
		return fmt.Errorf("sample rate %v outside [0, 1] (0 traces header-carrying requests only, 1 traces everything)", v)
	}
	return nil
}

func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown level %q (want debug, info, warn or error)", s)
	}
}

// withPprof mounts net/http/pprof beside the API handler tree. Gated
// behind -pprof: the profile endpoints expose internals and can be
// made to burn CPU, so they are opt-in.
func withPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}

// parseRange parses a -range flag of the form "lo:hi" where either end
// may be empty for an open (infinite) end. The band is [lo, hi).
func parseRange(s string) (lo, hi float64, err error) {
	cut := strings.IndexByte(s, ':')
	if cut < 0 {
		return 0, 0, fmt.Errorf("want lo:hi (open ends empty), got %q", s)
	}
	lo, hi = math.Inf(-1), math.Inf(1)
	if part := s[:cut]; part != "" {
		if lo, err = strconv.ParseFloat(part, 64); err != nil {
			return 0, 0, fmt.Errorf("bad lo %q: %v", part, err)
		}
	}
	if part := s[cut+1:]; part != "" {
		if hi, err = strconv.ParseFloat(part, 64); err != nil {
			return 0, 0, fmt.Errorf("bad hi %q: %v", part, err)
		}
	}
	if !(lo < hi) {
		return 0, 0, fmt.Errorf("empty band [%v, %v)", lo, hi)
	}
	return lo, hi, nil
}

// serveLoop runs srv on ln until the listener fails or ctx is
// cancelled (SIGINT/SIGTERM via signal.NotifyContext in main). On
// cancellation it drains: Shutdown stops accepting, lets in-flight
// requests — a /v1/batch mid-write included — complete within the
// drain budget, and returns nil on a clean exit so topkd exits 0. The
// shutdown summary logs how long the drain took and how many requests
// were in flight when it began (tel and logger may be nil in tests).
func serveLoop(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration, tel *obs.Telemetry, logger *slog.Logger) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err // Serve only returns on failure (ErrServerClosed needs Shutdown)
	case <-ctx.Done():
		var inFlight int64
		if tel != nil {
			inFlight = tel.InFlight()
		}
		start := time.Now()
		sctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		err := srv.Shutdown(sctx)
		if logger != nil {
			logger.Info("drained",
				slog.Duration("drain", time.Since(start)),
				slog.Int64("in_flight", inFlight),
			)
		}
		return err
	}
}

// preload generates n synthetic points from seed and keeps those whose
// score lies in the band [lo, hi). A gateway's reads rely on every
// member holding only its own band, and members started with the same
// -n and -seed then hold disjoint slices of one point set that together
// tile it.
func preload(n int, seed int64, lo, hi float64) []topk.Result {
	var pts []topk.Result
	for _, p := range workload.NewGen(seed).Uniform(n, 1e6) {
		if lo <= p.Score && p.Score < hi {
			pts = append(pts, p)
		}
	}
	return pts
}

// newStore builds the chosen local backend behind the Store interface.
func newStore(backend string, cfg topk.ShardedConfig, pts []topk.Result) (topk.Store, error) {
	switch backend {
	case "sharded":
		if len(pts) > 0 {
			return topk.LoadSharded(cfg, pts)
		}
		return topk.NewSharded(cfg)
	case "single":
		var idx *topk.Index
		var err error
		if len(pts) > 0 {
			idx, err = topk.Load(cfg.Config, pts)
		} else {
			idx, err = topk.New(cfg.Config)
		}
		if err != nil {
			return nil, err
		}
		// An Index is one sequential EM machine; one mutex turns it
		// into a (serialized) Store for comparison runs.
		return serve.LockedIndex(idx), nil
	default:
		return nil, fmt.Errorf("unknown backend %q (want sharded or single)", backend)
	}
}
