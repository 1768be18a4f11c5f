package cluster

// This file is the HTTP half of one member node: a node owns its base
// URL and health state and speaks internal/serve's /v1 surface through
// the cluster's shared, pooled transport. Every call takes a context
// that already carries the per-request deadline (Cluster.callCtx), so
// cancellation and timeouts thread end-to-end from the gateway's
// caller down to the member's socket.
//
// A member RPC pays for the transport and little else: requests go
// straight to the http.RoundTripper, with no http.Client and so no
// redirect machinery (members never redirect; a 3xx is a failed
// member like any other non-200); TopK and /v1/batch requests share
// one immutable header per kind, which sends no User-Agent; and the
// transport the cluster builds for itself asks for no gzip, which no
// member sends. What remains per RPC is the per-call timeout context
// and net/http's own request and response parsing.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/point"
	"repro/internal/wire"
)

// node is one member process of the cluster.
type node struct {
	addr string // normalized base URL, e.g. http://host:port
	rt   http.RoundTripper
	// rpc is the cluster-shared per-member latency vec; do records
	// every request under this node's address.
	rpc *obs.Vec

	// Health state (health.go): consecutive failures and the ejection
	// deadline, guarded by mu.
	mu           sync.Mutex
	fails        int
	ejectedUntil time.Time
}

// get issues a GET and hands the 200 body to read.
func (n *node) get(ctx context.Context, path string, read func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.addr+path, nil)
	if err != nil {
		return fmt.Errorf("%s: %w: %v", n.addr, ErrNodeDown, err)
	}
	return n.do(req, read)
}

// post issues a POST without a body and ignores the 200 body.
func (n *node) post(ctx context.Context, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.addr+path, nil)
	if err != nil {
		return fmt.Errorf("%s: %w: %v", n.addr, ErrNodeDown, err)
	}
	return n.do(req, nil)
}

// jsonInto reads a body as one JSON value into out.
func jsonInto(out any) func(io.Reader) error {
	return func(body io.Reader) error { return json.NewDecoder(body).Decode(out) }
}

// do executes the request and hands a 200 body to read (nil: ignore
// it). Transport failures, redirects (never followed) and 5xx
// responses wrap ErrNodeDown (the member is unreachable or broken),
// and so does a 200 that is not of the media type the request's Accept
// header asked for, or whose body read rejects; structured non-2xx
// envelopes map back to the library sentinels (the member answered and
// rejected — not a node failure).
//
// Telemetry rides along here, on the one choke point every member
// request passes through: the duration lands in the per-member latency
// vec, and when the context carries a trace the ID is stamped on the
// outgoing request (the member's middleware adopts it, so both ends
// retain the same trace) with one child span per RPC hung off the
// gateway's root. A traced request stamps a copy of its header, which
// may be one of the shared ones (topkHeader, batchHeader); an untraced
// one pays for neither the copy nor the span's name.
func (n *node) do(req *http.Request, read func(io.Reader) error) (err error) {
	var sp *obs.Span
	if tr := obs.FromContext(req.Context()); tr != nil {
		sp = tr.StartSpan(req.Method+" "+req.URL.Path, n.addr)
		req.Header = req.Header.Clone()
		req.Header.Set(obs.TraceHeader, tr.ID)
		// The member records this span as its trace's parent, and the
		// gateway's stitcher splices the member tree back under it.
		req.Header.Set(obs.ParentSpanHeader, sp.ID())
	}
	start := time.Now()
	defer func() {
		if n.rpc != nil {
			n.rpc.Observe(n.addr, time.Since(start))
		}
		sp.End(err)
	}()
	resp, err := n.rt.RoundTrip(req)
	if err != nil {
		return fmt.Errorf("%s: %w: %v", n.addr, ErrNodeDown, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		var eb errBody
		if json.Unmarshal(data, &eb) == nil && eb.Error.Code != "" && resp.StatusCode < 500 {
			return errFromCode(eb.Error.Code, eb.Error.Message)
		}
		return fmt.Errorf("%s: %w: http %d: %s", n.addr, ErrNodeDown, resp.StatusCode, data)
	}
	if accept := req.Header.Get("Accept"); accept != "" {
		if ct := resp.Header.Get("Content-Type"); ct != accept {
			return fmt.Errorf("%s: %w: content type %q, asked for %q", n.addr, ErrNodeDown, ct, accept)
		}
	}
	if read == nil {
		return nil
	}
	if err := read(resp.Body); err != nil {
		// A 200 with an undecodable body is a broken member, not a
		// rejection.
		return fmt.Errorf("%s: %w: bad response body: %v", n.addr, ErrNodeDown, err)
	}
	return nil
}

// fetchRange asks the member for its declared score band.
func (n *node) fetchRange(ctx context.Context) (rangeResp, error) {
	var r rangeResp
	err := n.get(ctx, "/v1/range", jsonInto(&r))
	return r, err
}

// probe is the health check: the cheapest stateless read the member
// serves. /v1/epoch exists on every backend (0 when the backend has no
// topology), so a probe failure always means the PROCESS is in
// trouble, never that the backend is the wrong flavor.
func (n *node) probe(ctx context.Context) error {
	var e epochResp
	return n.get(ctx, "/v1/epoch", jsonInto(&e))
}

// bodyPool holds the buffers readPooled reads member bodies into.
// Only buffers up to bodyPoolMax go back, so one giant body does not
// pin its buffer for the life of the process.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const bodyPoolMax = 1 << 20

// readPooled reads body whole into a pooled buffer and hands the bytes
// to parse, which must keep no reference to them.
func readPooled(body io.Reader, parse func([]byte) error) error {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= bodyPoolMax {
			bodyPool.Put(buf)
		}
	}()
	buf.Reset()
	if _, err := buf.ReadFrom(body); err != nil {
		return err
	}
	return parse(buf.Bytes())
}

// topkHeader is the header of every member TopK, and batchHeader that
// of every member /v1/batch: one map each, shared by every request of
// its kind, so a request's header costs no allocation; nothing writes
// to them (do stamps a traced request's copy). The empty User-Agent
// keeps net/http from sending its default one, which no member reads.
var (
	topkHeader  = http.Header{"Accept": {wire.PointsType}, "User-Agent": {""}}
	batchHeader = http.Header{"Accept": {wire.BatchType}, "Content-Type": {wire.BatchType}, "User-Agent": {""}}
)

// appendRange appends path and the query parameters x1 and x2 to u.
// Bounds travel as URL query parameters, so ±Inf survives (strconv
// round-trips "Inf", unlike JSON bodies) — provided they are
// URL-escaped: a bare "+Inf" or "1e+300" would decode with a space,
// '+' being the form encoding of space. strconv's 'g' spelling holds
// no other byte a query value must escape.
func appendRange(u []byte, path string, x1, x2 float64) []byte {
	u = appendParam(append(append(u, path...), "?x1="...), x1)
	return appendParam(append(u, "&x2="...), x2)
}

// appendParam appends f in the shortest spelling that reads back as f,
// with '+' escaped as %2B.
func appendParam(u []byte, f float64) []byte {
	var num [32]byte
	for _, c := range strconv.AppendFloat(num[:0], f, 'g', -1, 64) {
		if c == '+' {
			u = append(u, "%2B"...)
		} else {
			u = append(u, c)
		}
	}
	return u
}

// topk runs one remote TopK and appends its answer to dst; on error dst
// comes back unchanged, so no prefix of a torn body reaches an answer.
// The member answers in the binary points body (wire.PointsType): the
// gateway and its members ship from one build, so there is no JSON
// fallback, and a 200 of any other type is a failed member. The body
// is read whole into a pooled buffer, then decoded by wire.ParsePoints.
func (n *node) topk(ctx context.Context, dst []point.P, x1, x2 float64, k int) ([]point.P, error) {
	var buf [128]byte
	u := appendRange(append(buf[:0], n.addr...), "/v1/topk", x1, x2)
	u = strconv.AppendInt(append(u, "&k="...), int64(k), 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, string(u), nil)
	if err != nil {
		return dst, fmt.Errorf("%s: %w: %v", n.addr, ErrNodeDown, err)
	}
	req.Header = topkHeader
	out := dst
	err = n.do(req, func(body io.Reader) error {
		return readPooled(body, func(b []byte) (err error) {
			out, err = wire.ParsePoints(b, dst)
			return err
		})
	})
	if err != nil {
		return dst, err
	}
	return out, nil
}

// count runs one remote Count.
func (n *node) count(ctx context.Context, x1, x2 float64) (int, error) {
	var buf [64]byte
	var r countResp
	if err := n.get(ctx, string(appendRange(buf[:0], "/v1/count", x1, x2)), jsonInto(&r)); err != nil {
		return 0, err
	}
	return r.Count, nil
}

// batch runs one remote /v1/batch of ops, an ops body (wire.BatchType)
// of nops ops, and returns the member's items, aligned with the ops.
// Like topk it has no JSON fallback: a 200 that is not an items body
// of exactly nops items is a failed member, and no prefix of it
// becomes an outcome.
//
// The body goes out as a *bytes.Reader, which net/http knows to be in
// memory, so it writes the request's headers and body to the
// connection together rather than flushing the headers alone first.
// net/http may still read a body after RoundTrip returns, so ops
// belongs to no pool and is never written again; every replica of a
// band reads the same ops through its own reader. The transport never
// retries a POST, so the request has no GetBody to rewind the body.
func (n *node) batch(ctx context.Context, ops []byte, nops int) ([]wire.Item, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.addr+"/v1/batch", nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w: %v", n.addr, ErrNodeDown, err)
	}
	req.Body = io.NopCloser(bytes.NewReader(ops))
	req.ContentLength = int64(len(ops))
	req.Header = batchHeader
	var items []wire.Item
	err = n.do(req, func(body io.Reader) error {
		return readPooled(body, func(b []byte) (err error) {
			items, err = wire.ParseItems(b, nil)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	if len(items) != nops {
		return nil, fmt.Errorf("%s: %w: batch returned %d items for %d ops", n.addr, ErrNodeDown, len(items), nops)
	}
	return items, nil
}

// stats fetches the member's meter snapshot.
func (n *node) stats(ctx context.Context) (statsResp, error) {
	var r statsResp
	err := n.get(ctx, "/v1/stats", jsonInto(&r))
	return r, err
}

// resetStats and dropCache are the administrative fan-out legs.
func (n *node) resetStats(ctx context.Context) error {
	return n.post(ctx, "/v1/stats/reset")
}

func (n *node) dropCache(ctx context.Context) error {
	return n.post(ctx, "/v1/cache/drop")
}

// getRaw issues a GET and returns the raw 200 body — the metrics
// scrape leg, where the payload is a Prometheus text page rather than
// JSON. Non-200 responses and transport failures wrap ErrNodeDown.
func (n *node) getRaw(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.addr+path, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w: %v", n.addr, ErrNodeDown, err)
	}
	resp, err := n.rt.RoundTrip(req)
	if err != nil {
		return nil, fmt.Errorf("%s: %w: %v", n.addr, ErrNodeDown, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		return nil, fmt.Errorf("%s: %w: http %d: %s", n.addr, ErrNodeDown, resp.StatusCode, data)
	}
	return io.ReadAll(resp.Body)
}
