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
	"sync"
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

// traceRing is how many finished traces a Telemetry retains.
const traceRing = 256

// New builds a Telemetry from o; the zero Options give a discard
// logger and header-only tracing.
func New(o Options) *Telemetry {
	log := o.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	return &Telemetry{
		Log:       log,
		HTTP:      NewVec(),
		Ops:       NewVec(),
		Tracer:    NewTracer(o.SampleRate, traceRing),
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
	label, rest, _ := strings.Cut(p, "/")
	if sub, _, _ := strings.Cut(rest, "/"); sub == "reset" || sub == "drop" || sub == "fleet" {
		label += "_" + sub
	}
	if !endpointLabels[label] {
		return "other"
	}
	return label
}

// statusWriter captures the response status for the request log and
// the trace. Middleware takes one from statusPool per request and puts
// it back once the handler has returned, so a request costs no wrapper
// allocation; a handler may not use its ResponseWriter after returning.
type statusWriter struct {
	http.ResponseWriter
	status int
}

var statusPool = sync.Pool{New: func() any { return new(statusWriter) }}

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

		sw := statusPool.Get().(*statusWriter)
		*sw = statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		status := sw.status
		*sw = statusWriter{}
		statusPool.Put(sw)

		d := time.Since(start)
		endpoint := EndpointLabel(r.URL.Path)
		t.HTTP.Observe(endpoint, d)
		t.Tracer.Finish(tr, status)

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
				slog.Int("status", status),
				slog.Duration("dur", d),
			)
		}
	})
}

// TimeOpCtx starts timing one Store operation under op in the Ops
// histogram, and opens a "store.<op>" span on ctx's trace when the
// request is traced, so member Store operations show up in the
// stitched cross-process tree. It returns the timing as a value, not a
// closure, so a Store call costs no allocation for it:
// `defer t.TimeOpCtx(ctx, "topk").End()`.
func (t *Telemetry) TimeOpCtx(ctx context.Context, op string) OpTimer {
	return OpTimer{t: t, op: op, start: time.Now(), sp: startOpSpan(ctx, op)}
}

// OpTimer is one Store operation TimeOpCtx is timing.
type OpTimer struct {
	t     *Telemetry
	op    string
	start time.Time
	sp    *Span
}

// End records the operation's duration under its op in the Ops
// histogram and ends its span.
func (o OpTimer) End() {
	o.t.Ops.Observe(o.op, time.Since(o.start))
	o.sp.End(nil)
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
