package main

// The traced run times each layer from outside, at the public call
// boundaries of the repository's modules: an http.Handler wrapper
// around the gateway's and each member's serve.New, a topk.Store
// wrapper outside Batched, between Batched and Cluster, and around each
// member's Sharded, and an http.RoundTripper under the gateway's member
// calls. The client tags each request with its trace; the handler
// wrapper puts the tag in the request context, the Store wrappers
// receive it through WithContext, and the RoundTripper copies it onto
// member requests, whose handler wrapper picks it up again.

import (
	"cmp"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	topk "repro"
)

const (
	traceHeader = "X-Bench-Trace"
	spanHeader  = "X-Bench-Span"
	// flushTrace marks the trace IDs of group-commit flushes, which run
	// without a caller and so start traces of their own.
	flushTrace = 1 << 63
)

// wop is one write a span carried: it links a single-op write to the
// flush that committed it.
type wop struct {
	X   float64 `json:"x"`
	Del bool    `json:"del,omitempty"`
}

// span is one timed call at a layer boundary.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Writes []wop  `json:"writes,omitempty"`
}

// ref names the span a call runs under.
type ref struct{ trace, span uint64 }

type refKey struct{}

func withRef(ctx context.Context, r ref) context.Context { return context.WithValue(ctx, refKey{}, r) }

func refFrom(ctx context.Context) (ref, bool) {
	if ctx == nil {
		return ref{}, false
	}
	r, ok := ctx.Value(refKey{}).(ref)
	return r, ok
}

func setRefHeader(h http.Header, r ref) {
	h.Set(traceHeader, strconv.FormatUint(r.trace, 10))
	h.Set(spanHeader, strconv.FormatUint(r.span, 10))
}

func refFromHeader(h http.Header) (ref, bool) {
	t, err1 := strconv.ParseUint(h.Get(traceHeader), 10, 64)
	s, err2 := strconv.ParseUint(h.Get(spanHeader), 10, 64)
	return ref{t, s}, err1 == nil && err2 == nil
}

// tracer keeps every finished span in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// begin opens a span under parent; a zero parent starts a flush trace.
func (t *tracer) begin(layer, op string, parent ref) span {
	id := t.ids.Add(1)
	if parent.trace == 0 {
		parent.trace = flushTrace | id
	}
	return span{Trace: parent.trace, ID: id, Parent: parent.span, Layer: layer, Op: op, Start: t.at(time.Now())}
}

func (t *tracer) end(sp span) {
	sp.End = t.at(time.Now())
	t.add(sp)
}

func (t *tracer) add(sp span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

func (sp span) ref() ref { return ref{sp.Trace, sp.ID} }

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// handler records a span of the given layer around every tagged
// request and hands the tag to the handler through the context.
func (t *tracer) handler(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, ok := refFromHeader(r.Header)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		sp := t.begin(layer, r.URL.Path, parent)
		h.ServeHTTP(w, r.WithContext(withRef(r.Context(), sp.ref())))
		t.end(sp)
	})
}

// transport records a span per tagged member request, from the request
// write until the caller closes the response body (after decoding it),
// and copies the tag onto the request.
func (t *tracer) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripper{t: t, base: base}
}

type roundTripper struct {
	t    *tracer
	base http.RoundTripper
}

func (rt roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := refFrom(req.Context())
	if !ok {
		return rt.base.RoundTrip(req)
	}
	sp := rt.t.begin("http.member", req.URL.Path, parent)
	req = req.Clone(req.Context())
	setRefHeader(req.Header, sp.ref())
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		rt.t.end(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { rt.t.end(sp) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// store wraps st so each TopK and write records a span of the given
// layer; the workloads call nothing else that does work. It forwards
// Unwrap and WithContext, so the serving layer's probes and context
// binding see the same stack as in the untraced run.
func (t *tracer) store(layer string, st topk.Store) topk.Store {
	return &tracedStore{Store: st, raw: st, t: t, layer: layer}
}

type tracedStore struct {
	topk.Store            // raw, bound to ctx when ctx is set: untraced calls go here
	raw        topk.Store // the wrapped store, unbound
	t          *tracer
	layer      string
	ctx        context.Context
}

func bind(st topk.Store, ctx context.Context) topk.Store {
	if b, ok := st.(interface {
		WithContext(context.Context) topk.Store
	}); ok {
		return b.WithContext(ctx)
	}
	return st
}

func (s *tracedStore) Unwrap() topk.Store { return s.raw }

func (s *tracedStore) WithContext(ctx context.Context) topk.Store {
	return &tracedStore{Store: bind(s.raw, ctx), raw: s.raw, t: s.t, layer: s.layer, ctx: ctx}
}

// call runs f against the wrapped store inside a span. Calls outside a
// traced request run untraced, except an unbound ApplyBatch: that is a
// group-commit flush, which becomes the root of a trace of its own.
func (s *tracedStore) call(op string, writes []wop, flush bool, f func(topk.Store)) {
	parent, ok := refFrom(s.ctx)
	if !ok && !flush {
		f(s.Store)
		return
	}
	sp := s.t.begin(s.layer, op, parent)
	sp.Writes = writes
	ctx := s.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	f(bind(s.raw, withRef(ctx, sp.ref())))
	s.t.end(sp)
}

func (s *tracedStore) TopK(x1, x2 float64, k int) (res []topk.Result) {
	s.call("topk", nil, false, func(st topk.Store) { res = st.TopK(x1, x2, k) })
	return res
}

func (s *tracedStore) Insert(pos, score float64) (err error) {
	s.call("insert", []wop{{X: pos}}, false, func(st topk.Store) { err = st.Insert(pos, score) })
	return err
}

func (s *tracedStore) Delete(pos, score float64) (found bool) {
	s.call("delete", []wop{{X: pos, Del: true}}, false, func(st topk.Store) { found = st.Delete(pos, score) })
	return found
}

func (s *tracedStore) ApplyBatch(ops []topk.BatchOp) (errs []error) {
	writes := make([]wop, len(ops))
	for i, o := range ops {
		writes[i] = wop{X: o.X, Del: o.Delete}
	}
	s.call("apply_batch", writes, s.ctx == nil, func(st topk.Store) { errs = st.ApplyBatch(ops) })
	return errs
}

// selfTime is the part of [start, end) that no child interval covers:
// children running in parallel are subtracted as a union, not a sum.
func selfTime(start, end int64, kids [][2]int64) int64 {
	kids = slices.Clone(kids)
	slices.SortFunc(kids, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	covered, reach := int64(0), start
	for _, k := range kids {
		lo, hi := max(k[0], reach), min(k[1], end)
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
	}
	return end - start - covered
}
