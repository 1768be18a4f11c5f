package obs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBuckets: observations land in the right log-scaled
// buckets, the snapshot is cumulative, and the +Inf bucket equals the
// count.
func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)                    // bucket 0 (≤ 1µs)
	h.Observe(time.Microsecond)     // bucket 0
	h.Observe(2 * time.Microsecond) // bucket 1
	h.Observe(3 * time.Microsecond) // bucket 2 (≤ 4µs)
	h.Observe(time.Millisecond)     // 1000µs → bucket 10 (≤ 1024µs)
	h.Observe(time.Hour)            // overflow
	h.Observe(-time.Second)         // clamps to 0 → bucket 0

	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if s.Counts[numBounds] != 7 {
		t.Fatalf("+Inf bucket = %d, want 7 (== count)", s.Counts[numBounds])
	}
	if s.Counts[0] != 3 {
		t.Fatalf("bucket 0 = %d, want 3", s.Counts[0])
	}
	if s.Counts[1] != 4 {
		t.Fatalf("bucket ≤2µs cumulative = %d, want 4", s.Counts[1])
	}
	if s.Counts[2] != 5 {
		t.Fatalf("bucket ≤4µs cumulative = %d, want 5", s.Counts[2])
	}
	if s.Counts[10] != 6 {
		t.Fatalf("bucket ≤1024µs cumulative = %d, want 6", s.Counts[10])
	}
	for i := 1; i < len(s.Counts); i++ {
		if s.Counts[i] < s.Counts[i-1] {
			t.Fatalf("buckets not cumulative at %d: %d < %d", i, s.Counts[i], s.Counts[i-1])
		}
	}
	if want := time.Hour + time.Millisecond + 6*time.Microsecond; s.Sum != want {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// the merged count must be exact (atomics, not sampling) and the race
// detector must stay quiet.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(i%1000) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
}

// TestQuantile: quantiles of a known distribution land inside the
// owning bucket (log-scaled buckets bound the error to 2x).
func TestQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond) // bucket (64µs, 128µs]
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond) // bucket (32.768ms, 65.536ms]
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); q < 64*time.Microsecond || q > 128*time.Microsecond {
		t.Fatalf("p50 = %v, want within (64µs, 128µs]", q)
	}
	if q := s.Quantile(0.99); q < 32*time.Millisecond || q > 66*time.Millisecond {
		t.Fatalf("p99 = %v, want within the 50ms bucket", q)
	}
	if q := (Snapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

// TestVec: labels create lazily, Get misses return nil, labels sort.
// TestObserveZeroAllocs is the testing half of the //topk:nomalloc
// contract on the histogram hot path: both the bare histogram and a
// warm (label already created) vector record without allocating.
func TestObserveZeroAllocs(t *testing.T) {
	var h Histogram
	if allocs := testing.AllocsPerRun(100, func() {
		h.Observe(42 * time.Microsecond)
	}); allocs != 0 {
		t.Errorf("Histogram.Observe allocates %.1f times per run; //topk:nomalloc promises 0", allocs)
	}

	v := NewVec()
	v.Observe("topk", time.Millisecond) // create the label: the one cold path
	if allocs := testing.AllocsPerRun(100, func() {
		v.Observe("topk", 42*time.Microsecond)
	}); allocs != 0 {
		t.Errorf("warm Vec.Observe allocates %.1f times per run; //topk:nomalloc promises 0", allocs)
	}
}

// TestPerRequestTelemetryZeroAllocs: what every Store call and every
// request pays in telemetry allocates nothing once the op's histogram
// exists — an untraced TimeOpCtx timing ended with End, and the
// endpoint label of a read — and End records the op.
func TestPerRequestTelemetryZeroAllocs(t *testing.T) {
	tel := New(Options{})
	ctx := context.Background()
	tel.TimeOpCtx(ctx, "topk").End() // create the label: the one cold path
	if allocs := testing.AllocsPerRun(100, func() {
		defer tel.TimeOpCtx(ctx, "topk").End()
	}); allocs != 0 {
		t.Errorf("untraced TimeOpCtx(...).End() allocates %.1f times per run, want 0", allocs)
	}
	if n := tel.Ops.Get("topk").Snapshot().Count; n != 102 {
		t.Errorf("the topk histogram holds %d ops, want 102", n)
	}
	if allocs := testing.AllocsPerRun(100, func() { EndpointLabel("/v1/topk") }); allocs != 0 {
		t.Errorf("EndpointLabel allocates %.1f times per run, want 0", allocs)
	}
}

func TestVec(t *testing.T) {
	v := NewVec()
	v.Observe("b", time.Millisecond)
	v.Observe("a", time.Millisecond)
	v.Observe("a", time.Millisecond)
	if got := v.Labels(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("labels = %v", got)
	}
	if v.Get("missing") != nil {
		t.Fatal("Get(missing) != nil")
	}
	if s := v.Snapshots()["a"]; s.Count != 2 {
		t.Fatalf("a count = %d, want 2", s.Count)
	}
}

// TestRingEviction: the ring holds exactly its capacity, oldest out
// first, and evicted IDs stop resolving.
func TestRingEviction(t *testing.T) {
	r := NewRing[*Trace](3)
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("t%d", i)
		r.Put(id, &Trace{ID: id, root: &Span{}})
	}
	for i := 0; i < 2; i++ {
		if _, ok := r.Get(fmt.Sprintf("t%d", i)); ok {
			t.Fatalf("t%d should have been evicted", i)
		}
	}
	for i := 2; i < 5; i++ {
		if tr, ok := r.Get(fmt.Sprintf("t%d", i)); !ok || tr.ID != fmt.Sprintf("t%d", i) {
			t.Fatalf("t%d missing", i)
		}
	}
	if got := r.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
}

// TestRingConcurrent: puts and lookups from several goroutines at once
// lose no count — the ring ends full, with every put past its capacity
// counted as an eviction.
func TestRingConcurrent(t *testing.T) {
	const workers, puts, size = 4, 200, 64
	r := NewRing[int](size)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				r.Put(id, i)
				r.Get(id)
				r.Len()
			}
		}(w)
	}
	wg.Wait()
	if got := r.Len(); got != size {
		t.Fatalf("Len = %d, want %d", got, size)
	}
	if got := r.Evictions(); got != workers*puts-size {
		t.Fatalf("evictions = %d, want %d", got, workers*puts-size)
	}
}

// TestTraceTree: spans started under a trace (concurrently, like the
// member fan-out) appear as children of the root with durations and
// errors recorded.
func TestTraceTree(t *testing.T) {
	tr := newTrace("", "GET /v1/topk")
	if len(tr.ID) != 16 {
		t.Fatalf("generated ID %q, want 16 hex chars", tr.ID)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := tr.StartSpan("GET /v1/topk", fmt.Sprintf("http://m%d", i))
			if i == 0 {
				sp.End(fmt.Errorf("boom"))
			} else {
				sp.End(nil)
			}
		}(i)
	}
	wg.Wait()
	tr.StartSpan("merge", "").End(nil)
	tree := tr.Tree()
	if len(tree.Root.Children) != 5 {
		t.Fatalf("children = %d, want 5", len(tree.Root.Children))
	}
	errs := 0
	for _, c := range tree.Root.Children {
		if c.Err != "" {
			errs++
		}
	}
	if errs != 1 {
		t.Fatalf("errored spans = %d, want 1", errs)
	}
	// Nil-safety of the un-sampled path.
	var none *Trace
	none.StartSpan("x", "").End(nil)
}

// TestEndpointLabel: /v1 and admin paths normalize to the closed label
// set; unversioned paths and junk collapse to "other".
func TestEndpointLabel(t *testing.T) {
	cases := map[string]string{
		"/v1/topk":        "topk",
		"/topk":           "other",
		"/v1/stats/reset": "stats_reset",
		"/v1/cache/drop":  "cache_drop",
		"/v1/trace/abc12": "trace",
		"/v1/metrics":     "metrics",
		"/metrics":        "other",
		"/v1/epoch":       "epoch",
		"/wp-admin.php":   "other",
		"/":               "other",
		"/v1":             "other",
	}
	for path, want := range cases {
		if got := EndpointLabel(path); got != want {
			t.Fatalf("EndpointLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestMiddleware: the full pipeline — trace adoption from the request
// header, response echo, histogram recording, ring retention and the
// structured request log carrying the trace ID.
func TestMiddleware(t *testing.T) {
	var buf bytes.Buffer
	tel := New(Options{
		Logger: slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if FromContext(r.Context()) == nil {
			t.Error("handler saw no trace in context")
		}
		w.WriteHeader(http.StatusTeapot)
	})
	srv := httptest.NewServer(tel.Middleware(inner))
	defer srv.Close()

	req, _ := http.NewRequest("GET", srv.URL+"/v1/topk?x1=0&x2=1&k=1", nil)
	req.Header.Set(TraceHeader, "cafe0123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(TraceHeader); got != "cafe0123" {
		t.Fatalf("response trace header %q, want cafe0123", got)
	}
	tr := tel.Tracer.Get("cafe0123")
	if tr == nil {
		t.Fatal("trace not retained in ring")
	}
	if tr.Status != http.StatusTeapot {
		t.Fatalf("trace status %d, want 418", tr.Status)
	}
	if s := tel.HTTP.Get("topk"); s == nil || s.Snapshot().Count != 1 {
		t.Fatal("endpoint histogram not recorded")
	}
	log := buf.String()
	for _, want := range []string{"trace=cafe0123", "op=topk", "status=418", "msg=request"} {
		if !strings.Contains(log, want) {
			t.Fatalf("request log missing %q:\n%s", want, log)
		}
	}
	if tel.InFlight() != 0 {
		t.Fatalf("in-flight = %d after completion", tel.InFlight())
	}
}

// TestMiddlewareSampling: with rate 0 a header-less request is not
// traced; with rate 1 it is, and the generated ID round-trips through
// the response header into the ring.
func TestMiddlewareSampling(t *testing.T) {
	for _, rate := range []float64{0, 1} {
		tel := New(Options{SampleRate: rate})
		srv := httptest.NewServer(tel.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})))
		resp, err := http.Get(srv.URL + "/v1/epoch")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get(TraceHeader)
		if rate == 0 {
			if id != "" {
				t.Fatalf("rate 0 issued trace %q", id)
			}
		} else {
			if id == "" {
				t.Fatal("rate 1 issued no trace")
			}
			if tel.Tracer.Get(id) == nil {
				t.Fatalf("trace %q not in ring", id)
			}
		}
		srv.Close()
	}
}

// TestMiddlewareSlowQuery: a request past the threshold logs at warn
// with the slow-query message even when debug logs are filtered out.
func TestMiddlewareSlowQuery(t *testing.T) {
	var buf bytes.Buffer
	tel := New(Options{
		Logger:    slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo})),
		SlowQuery: time.Nanosecond,
	})
	srv := httptest.NewServer(tel.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Millisecond)
	})))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/count?x1=0&x2=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	log := buf.String()
	if !strings.Contains(log, "slow query") || !strings.Contains(log, "level=WARN") {
		t.Fatalf("no slow-query warn logged:\n%s", log)
	}
}

// TestWriteHistogramVec: the text format parses the way Prometheus
// expects — HELP/TYPE once, buckets per label cumulative, +Inf last,
// sum and count present; empty vecs emit headers only.
func TestWriteHistogramVec(t *testing.T) {
	v := NewVec()
	v.Observe("topk", 3*time.Microsecond)
	v.Observe("topk", 100*time.Millisecond)
	v.Observe("count", time.Microsecond)
	var b strings.Builder
	WriteHistogramVec(&b, "x_seconds", "help text", "endpoint", v)
	out := b.String()
	if !strings.HasPrefix(out, "# HELP x_seconds help text\n# TYPE x_seconds histogram\n") {
		t.Fatalf("missing header:\n%s", out)
	}
	for _, want := range []string{
		`x_seconds_bucket{endpoint="topk",le="+Inf"} 2`,
		`x_seconds_count{endpoint="topk"} 2`,
		`x_seconds_count{endpoint="count"} 1`,
		`x_seconds_sum{endpoint="count"} 1e-06`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	var empty strings.Builder
	WriteHistogramVec(&empty, "y_seconds", "h", "op", NewVec())
	if got := empty.String(); got != "# HELP y_seconds h\n# TYPE y_seconds histogram\n" {
		t.Fatalf("empty vec emitted %q", got)
	}
}

// TestWriteRuntimeMetrics: the runtime families are present and carry
// plausible values.
func TestWriteRuntimeMetrics(t *testing.T) {
	var b strings.Builder
	WriteRuntimeMetrics(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE topkd_go_goroutines gauge",
		"topkd_go_heap_alloc_bytes ",
		"# TYPE topkd_go_gc_pause_seconds_total counter",
		"topkd_go_gc_cycles_total ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

// TestRuntimeMetricsNoStopTheWorld: a scrape reads the runtime without
// stopping the world, so ten of them add none of the runtime's own
// non-GC stop-the-world pauses (runtime.ReadMemStats adds one a call).
func TestRuntimeMetricsNoStopTheWorld(t *testing.T) {
	pauses := func() uint64 {
		s := []metrics.Sample{{Name: "/sched/pauses/total/other:seconds"}}
		metrics.Read(s)
		var n uint64
		for _, c := range s[0].Value.Float64Histogram().Counts {
			n += c
		}
		return n
	}
	before := pauses()
	for range 10 {
		WriteRuntimeMetrics(io.Discard)
	}
	if n := pauses() - before; n != 0 {
		t.Fatalf("ten scrapes stopped the world %d times, want 0", n)
	}
}
