package obs

// Request tracing. A Trace is a bounded span tree rooted at the
// serving-layer request; the cluster client hangs one child span per
// member RPC off the root, so a gateway query yields gateway →
// per-band member RPC. The trace ID travels in the X-Topkd-Trace
// header: the gateway's client stamps it on every member request, the
// member's middleware adopts it, and both ends keep their finished
// traces in a fixed-size ring served by GET /v1/trace/{id}. Traces
// are sampled (tracing allocates; the always-on histograms do not) —
// a request traces when it arrives with the header or when the local
// sample rate fires.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"
)

// TraceHeader is the HTTP header carrying the trace ID across
// processes, request and response.
const TraceHeader = "X-Topkd-Trace"

// ParentSpanHeader carries the ID of the client-side RPC span that
// issued the request. The member's middleware records it on its local
// trace, and the gateway's stitcher later splices the member tree
// under the span with that ID — turning N process-local trees into one
// cross-process tree.
const ParentSpanHeader = "X-Topkd-Parent-Span"

// maxTraceID bounds accepted IDs so a hostile client cannot grow the
// ring's memory arbitrarily through giant header values.
const maxTraceID = 64

// Span is one timed operation inside a trace. Fields are written by
// StartSpan/End and read by Tree after the trace is finished; child
// appends are serialized by the owning Trace.
type Span struct {
	id       string // random 64-bit hex, the stitch point for members
	name     string
	addr     string // member address for RPC spans, "" otherwise
	start    time.Time
	duration time.Duration
	err      string

	mu       sync.Mutex
	children []*Span
}

// newSpanID draws a random 64-bit span ID; collisions across the spans
// of one trace are what matter, and at a handful of RPC spans per
// trace they are negligible.
func newSpanID() string { return fmt.Sprintf("%016x", rand.Uint64()) }

// ID returns the span's unique ID (nil-safe: "" for an un-sampled
// span, which callers must not propagate).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// End closes the span, recording its duration and error (nil-safe, so
// callers can End an un-sampled span unconditionally).
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.duration = time.Since(s.start)
	if err != nil {
		s.err = err.Error()
	}
	s.mu.Unlock()
}

// Trace is one sampled request: an ID and the span tree under it.
type Trace struct {
	ID     string
	Status int // HTTP status of the root request, set at finish
	// ParentSpan is the caller's RPC-span ID when the request arrived
	// with X-Topkd-Parent-Span — the gateway stitches this member trace
	// under that span.
	ParentSpan string
	root       *Span
}

// newTrace builds a trace with the given (or a fresh) ID.
func newTrace(id, rootName string) *Trace {
	if id == "" {
		id = fmt.Sprintf("%016x", rand.Uint64())
	} else if len(id) > maxTraceID {
		id = id[:maxTraceID]
	}
	root := &Span{id: newSpanID(), name: rootName, start: time.Now()}
	return &Trace{ID: id, root: root}
}

// StartSpan opens a child span under the root (nil-safe). Concurrent
// callers — the parallel member fan-out — may start spans at once.
func (t *Trace) StartSpan(name, addr string) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{id: newSpanID(), name: name, addr: addr, start: time.Now()}
	t.root.mu.Lock()
	t.root.children = append(t.root.children, sp)
	t.root.mu.Unlock()
	return sp
}

// SpanJSON is the wire shape of a span, the payload of /v1/trace/{id}.
type SpanJSON struct {
	SpanID     string     `json:"span_id"`
	Name       string     `json:"name"`
	Addr       string     `json:"addr,omitempty"`
	Start      time.Time  `json:"start"`
	DurationUS int64      `json:"duration_us"`
	Err        string     `json:"err,omitempty"`
	Children   []SpanJSON `json:"children,omitempty"`
}

// TraceJSON is the wire shape of a finished trace.
type TraceJSON struct {
	ID         string   `json:"id"`
	Status     int      `json:"status"`
	ParentSpan string   `json:"parent_span,omitempty"`
	Root       SpanJSON `json:"root"`
}

func (s *Span) tree() SpanJSON {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := SpanJSON{
		SpanID:     s.id,
		Name:       s.name,
		Addr:       s.addr,
		Start:      s.start,
		DurationUS: s.duration.Microseconds(),
		Err:        s.err,
	}
	for _, c := range s.children {
		out.Children = append(out.Children, c.tree())
	}
	return out
}

// Tree renders the finished trace for JSON encoding.
func (t *Trace) Tree() TraceJSON {
	return TraceJSON{ID: t.ID, Status: t.Status, ParentSpan: t.ParentSpan, Root: t.root.tree()}
}

// SpanAddrs returns the distinct non-empty member addresses in the
// tree, first-visit order — the fan-out list for trace stitching.
func SpanAddrs(root SpanJSON) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(s SpanJSON)
	walk = func(s SpanJSON) {
		if s.Addr != "" && !seen[s.Addr] {
			seen[s.Addr] = true
			out = append(out, s.Addr)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	return out
}

// Stitch splices each member trace under the span in root whose ID
// matches the member's ParentSpan, mutating root in place. Member
// traces with no parent-span ID, or whose parent is absent from the
// tree (evicted, re-used ID), are skipped. Returns the number of
// subtrees spliced.
func Stitch(root *SpanJSON, members []TraceJSON) int {
	byParent := map[string][]SpanJSON{}
	for _, m := range members {
		if m.ParentSpan != "" {
			byParent[m.ParentSpan] = append(byParent[m.ParentSpan], m.Root)
		}
	}
	// One walk, appending as we go. Each span's original children are
	// visited before the splice grows the slice (the spliced subtrees
	// carry no parent IDs of their own to resolve), so a reallocating
	// append can never stale a pointer the walk still holds.
	n := 0
	var walk func(s *SpanJSON)
	walk = func(s *SpanJSON) {
		for i := 0; i < len(s.Children); i++ {
			walk(&s.Children[i])
		}
		if subs, ok := byParent[s.SpanID]; ok && s.SpanID != "" {
			s.Children = append(s.Children, subs...)
			n += len(subs)
		}
	}
	walk(root)
	return n
}

// ctxKey keys the trace in a context.Context.
type ctxKey struct{}

// WithTrace attaches t to ctx; the cluster client picks it up on the
// far side of the Store interface.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// Ring is a bounded in-memory store addressed by ID: fixed capacity,
// oldest evicted first. The tracer keeps finished traces in one, and
// the serving layer keeps async-ack write outcomes in another.
type Ring[T any] struct {
	mu        sync.Mutex
	cap       int
	entries   []ringEntry[T] // grows to cap, then wraps at next
	next      int
	byID      map[string]int // ID → index of its newest entry
	evictions int64
}

type ringEntry[T any] struct {
	id string
	v  T
}

// NewRing returns a ring holding up to n values (minimum 1).
func NewRing[T any](n int) *Ring[T] {
	return &Ring[T]{cap: max(n, 1), byID: make(map[string]int)}
}

// Put stores v under id, evicting the oldest value when full.
func (r *Ring[T]) Put(id string, v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := ringEntry[T]{id: id, v: v}
	if len(r.entries) < r.cap {
		r.byID[id] = len(r.entries)
		r.entries = append(r.entries, e)
		return
	}
	r.evictions++
	if old := r.entries[r.next].id; r.byID[old] == r.next {
		delete(r.byID, old)
	}
	r.entries[r.next] = e
	r.byID[id] = r.next
	r.next = (r.next + 1) % r.cap
}

// Get returns the value stored under id; ok is false if it was never
// stored or has been evicted.
func (r *Ring[T]) Get(id string) (v T, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.byID[id]
	if !ok {
		return v, false
	}
	return r.entries[i].v, true
}

// Len returns the number of values that Get can still find.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byID)
}

// Evictions returns the number of values overwritten by newer ones —
// the counter that explains trace_not_found and outcome_not_found
// responses.
func (r *Ring[T]) Evictions() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evictions
}

// Tracer owns the sampling decision and the ring of finished traces.
type Tracer struct {
	// Sample is the fraction of header-less requests to trace locally
	// (0 = only propagated traces, ≥ 1 = every request).
	Sample float64
	ring   *Ring[*Trace]
}

// NewTracer returns a tracer sampling at the given rate with a ring of
// ringSize finished traces.
func NewTracer(sample float64, ringSize int) *Tracer {
	return &Tracer{Sample: sample, ring: NewRing[*Trace](ringSize)}
}

// sampled draws the local sampling decision for a request that arrived
// without a trace header.
func (tr *Tracer) sampled() bool {
	if tr.Sample >= 1 {
		return true
	}
	if tr.Sample <= 0 {
		return false
	}
	return rand.Float64() < tr.Sample
}

// Start begins a trace with the given (or a generated) ID.
func (tr *Tracer) Start(id, rootName string) *Trace {
	return newTrace(id, rootName)
}

// Finish closes the root span, stamps the HTTP status and retains the
// trace in the ring.
func (tr *Tracer) Finish(t *Trace, status int) {
	if t == nil {
		return
	}
	t.root.End(nil)
	t.Status = status
	tr.ring.Put(t.ID, t)
}

// Get retrieves a finished trace by ID, or nil if it was never sampled
// or has been evicted.
func (tr *Tracer) Get(id string) *Trace {
	t, _ := tr.ring.Get(id)
	return t
}

// RingEvictions returns how many finished traces the ring has evicted.
func (tr *Tracer) RingEvictions() int64 { return tr.ring.Evictions() }
