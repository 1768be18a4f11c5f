package obs

// Telemetry bundles the per-process observability state — request and
// op histograms, the tracer, the structured logger and the slow-query
// threshold — and provides the HTTP middleware that feeds it. One
// Telemetry per handler tree: internal/serve creates a default one
// when the caller (tests, embedders) does not supply its own, and
// cmd/topkd builds one from its flags.

import (
	"context"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// Options configures a Telemetry.
type Options struct {
	// Logger receives request logs (debug level; slow queries at warn)
	// and serving-layer error logs. Nil discards.
	Logger *slog.Logger
	// SampleRate is the fraction of header-less requests to trace
	// (0 = only requests carrying X-Topkd-Trace; ≥ 1 = all).
	SampleRate float64
	// TraceRing caps the retained finished traces (default 256).
	TraceRing int
	// SlowQuery, when positive, logs requests at least this slow at
	// warn level.
	SlowQuery time.Duration
}

// Telemetry is the observability state of one handler tree.
type Telemetry struct {
	// Log is the structured logger; never nil (discard by default).
	Log *slog.Logger
	// HTTP records request latency per endpoint label.
	HTTP *Vec
	// Ops records Store operation latency per op (insert, delete,
	// topk, count, apply_batch, query_batch).
	Ops *Vec
	// Tracer owns sampling and the finished-trace ring.
	Tracer *Tracer
	// SlowQuery is the warn-level latency threshold (0 = disabled).
	SlowQuery time.Duration

	inflight atomic.Int64
}

// New builds a Telemetry from o; the zero Options give a discard
// logger, header-only tracing and a 256-trace ring.
func New(o Options) *Telemetry {
	log := o.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	ring := o.TraceRing
	if ring <= 0 {
		ring = 256
	}
	return &Telemetry{
		Log:       log,
		HTTP:      NewVec(),
		Ops:       NewVec(),
		Tracer:    NewTracer(o.SampleRate, ring),
		SlowQuery: o.SlowQuery,
	}
}

// InFlight returns the number of requests currently inside the
// middleware — the gauge behind the shutdown drain summary.
func (t *Telemetry) InFlight() int64 { return t.inflight.Load() }

// endpointLabels is the closed label set of the HTTP histogram;
// anything else (scanner probes, typos) records as "other" so label
// cardinality stays bounded no matter what clients send.
var endpointLabels = map[string]bool{
	"insert": true, "delete": true, "batch": true, "topk": true,
	"count": true, "epoch": true, "range": true, "stats": true,
	"stats_reset": true, "cache_drop": true, "metrics": true,
	"metrics_fleet": true, "trace": true, "outcome": true,
}

// EndpointLabel normalizes a request path to its histogram label:
// "/v1/topk" → "topk", admin twins keep their second segment
// ("stats_reset", "cache_drop"), trace lookups drop their ID, and
// unknown paths — anything outside /v1/ included — collapse to
// "other".
func EndpointLabel(path string) string {
	p, ok := strings.CutPrefix(path, "/v1/")
	if !ok {
		return "other"
	}
	seg := strings.SplitN(p, "/", 3)
	label := seg[0]
	if len(seg) > 1 && (seg[1] == "reset" || seg[1] == "drop" || seg[1] == "fleet") {
		label = seg[0] + "_" + seg[1]
	}
	if !endpointLabels[label] {
		return "other"
	}
	return label
}

// statusWriter captures the response status for the request log and
// the trace.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Middleware wraps next with the full per-request pipeline: in-flight
// accounting, per-endpoint latency histogram, trace begin/finish (the
// response echoes the trace ID in X-Topkd-Trace), and the structured
// request log — debug level normally, warn when the request breaches
// the slow-query threshold.
func (t *Telemetry) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		t.inflight.Add(1)
		defer t.inflight.Add(-1)

		var tr *Trace
		if id := r.Header.Get(TraceHeader); id != "" || t.Tracer.sampled() {
			tr = t.Tracer.Start(id, r.Method+" "+r.URL.Path)
			if ps := r.Header.Get(ParentSpanHeader); ps != "" && len(ps) <= maxTraceID {
				tr.ParentSpan = ps
			}
			w.Header().Set(TraceHeader, tr.ID)
			r = r.WithContext(WithTrace(r.Context(), tr))
		}

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)

		d := time.Since(start)
		endpoint := EndpointLabel(r.URL.Path)
		t.HTTP.Observe(endpoint, d)
		t.Tracer.Finish(tr, sw.status)

		lvl := slog.LevelDebug
		msg := "request"
		if t.SlowQuery > 0 && d >= t.SlowQuery {
			lvl = slog.LevelWarn
			msg = "slow query"
		}
		if t.Log.Enabled(r.Context(), lvl) {
			id := ""
			if tr != nil {
				id = tr.ID
			}
			t.Log.LogAttrs(r.Context(), lvl, msg,
				slog.String("trace", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("op", endpoint),
				slog.Int("status", sw.status),
				slog.Duration("dur", d),
			)
		}
	})
}

// TimeOp returns a closure that records the elapsed time under op in
// the Ops histogram — `defer t.TimeOp("topk")()` around a Store call.
func (t *Telemetry) TimeOp(op string) func() {
	start := time.Now()
	return func() { t.Ops.Observe(op, time.Since(start)) }
}

// TimeOpCtx is TimeOp plus a "store.<op>" span on ctx's trace (when
// the request is traced), so member Store operations show up in the
// stitched cross-process tree.
func (t *Telemetry) TimeOpCtx(ctx context.Context, op string) func() {
	start := time.Now()
	sp := startOpSpan(ctx, op)
	return func() {
		t.Ops.Observe(op, time.Since(start))
		sp.End(nil)
	}
}

// startOpSpan opens the Store-op span, or nil when untraced. Split out
// so the string concat only happens on the traced path.
func startOpSpan(ctx context.Context, op string) *Span {
	tr := FromContext(ctx)
	if tr == nil {
		return nil
	}
	return tr.StartSpan("store."+op, "")
}
