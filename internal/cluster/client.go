package cluster

// This file is the HTTP half of one member node: a node owns its base
// URL and health state and speaks internal/serve's /v1 surface through
// the cluster's shared, pooled transport. Every call takes a context
// that already carries the per-request deadline (Cluster.callCtx), so
// cancellation and timeouts thread end-to-end from the gateway's
// caller down to the member's socket.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
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
	hc   *http.Client
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

// post issues a POST with a JSON body and hands the 200 body to read.
func (n *node) post(ctx context.Context, path string, body any, read func(io.Reader) error) error {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return fmt.Errorf("%s: encode: %w", n.addr, err)
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.addr+path, &buf)
	if err != nil {
		return fmt.Errorf("%s: %w: %v", n.addr, ErrNodeDown, err)
	}
	req.Header.Set("Content-Type", "application/json")
	return n.do(req, read)
}

// jsonInto reads a body as one JSON value into out.
func jsonInto(out any) func(io.Reader) error {
	return func(body io.Reader) error { return json.NewDecoder(body).Decode(out) }
}

// do executes the request and hands a 200 body to read (nil: ignore
// it). Transport failures and 5xx responses wrap ErrNodeDown (the
// member is unreachable or broken), and so does a 200 that is not of
// the media type the request's Accept header asked for, or whose body
// read rejects; structured non-2xx envelopes map back to the library
// sentinels (the member answered and rejected — not a node failure).
//
// Telemetry rides along here, on the one choke point every member
// request passes through: the duration lands in the per-member latency
// vec, and when the context carries a trace the ID is stamped on the
// outgoing request (the member's middleware adopts it, so both ends
// retain the same trace) with one child span per RPC hung off the
// gateway's root.
func (n *node) do(req *http.Request, read func(io.Reader) error) (err error) {
	if tr := obs.FromContext(req.Context()); tr != nil {
		req.Header.Set(obs.TraceHeader, tr.ID)
	}
	sp := obs.StartSpan(req.Context(), req.Method+" "+req.URL.Path, n.addr)
	if id := sp.ID(); id != "" {
		// The member records this span as its trace's parent, and the
		// gateway's stitcher splices the member tree back under it.
		req.Header.Set(obs.ParentSpanHeader, id)
	}
	start := time.Now()
	defer func() {
		if n.rpc != nil {
			n.rpc.Observe(n.addr, time.Since(start))
		}
		sp.End(err)
	}()
	resp, err := n.hc.Do(req)
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

// bodyPool holds the buffers topk reads member bodies into. Only
// buffers up to bodyPoolMax go back, so one giant answer does not pin
// its buffer for the life of the process.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const bodyPoolMax = 1 << 20

// acceptPoints is the Accept header of every member TopK, one slice
// shared by all of them so the header costs a read no allocation of
// its own; nothing writes to it.
var acceptPoints = []string{wire.PointsType}

// topk runs one remote TopK and appends its answer to dst; on error dst
// comes back unchanged, so no prefix of a torn body reaches an answer.
// The member answers in the binary points body (wire.PointsType): the
// gateway and its members ship from one build, so there is no JSON
// fallback, and a 200 of any other type is a failed member. The body
// is read whole into a pooled buffer, then decoded by wire.ParsePoints.
// Bounds travel as URL query parameters, so ±Inf survives (strconv
// round-trips "Inf", unlike JSON bodies) — provided they are
// URL-escaped: a bare "+Inf" would decode as " Inf", '+' being the
// form encoding of space.
func (n *node) topk(ctx context.Context, dst []point.P, x1, x2 float64, k int) ([]point.P, error) {
	q := url.Values{}
	q.Set("x1", fmtFloat(x1))
	q.Set("x2", fmtFloat(x2))
	q.Set("k", strconv.Itoa(k))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.addr+"/v1/topk?"+q.Encode(), nil)
	if err != nil {
		return dst, fmt.Errorf("%s: %w: %v", n.addr, ErrNodeDown, err)
	}
	req.Header["Accept"] = acceptPoints
	out := dst
	err = n.do(req, func(body io.Reader) error {
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
		var err error
		out, err = wire.ParsePoints(buf.Bytes(), dst)
		return err
	})
	if err != nil {
		return dst, err
	}
	return out, nil
}

// count runs one remote Count.
func (n *node) count(ctx context.Context, x1, x2 float64) (int, error) {
	q := url.Values{}
	q.Set("x1", fmtFloat(x1))
	q.Set("x2", fmtFloat(x2))
	var r countResp
	if err := n.get(ctx, "/v1/count?"+q.Encode(), jsonInto(&r)); err != nil {
		return 0, err
	}
	return r.Count, nil
}

// batch runs one remote /v1/batch, returning the per-op items aligned
// with ops.
func (n *node) batch(ctx context.Context, ops []wire.Op) ([]wire.Item, error) {
	var r batchResp
	if err := n.post(ctx, "/v1/batch", batchReq{Ops: ops}, jsonInto(&r)); err != nil {
		return nil, err
	}
	if len(r.Results) != len(ops) {
		return nil, fmt.Errorf("%s: %w: batch returned %d items for %d ops", n.addr, ErrNodeDown, len(r.Results), len(ops))
	}
	return r.Results, nil
}

// stats fetches the member's meter snapshot.
func (n *node) stats(ctx context.Context) (statsResp, error) {
	var r statsResp
	err := n.get(ctx, "/v1/stats", jsonInto(&r))
	return r, err
}

// resetStats and dropCache are the administrative fan-out legs.
func (n *node) resetStats(ctx context.Context) error {
	return n.post(ctx, "/v1/stats/reset", nil, nil)
}

func (n *node) dropCache(ctx context.Context) error {
	return n.post(ctx, "/v1/cache/drop", nil, nil)
}

// getRaw issues a GET and returns the raw 200 body — the metrics
// scrape leg, where the payload is a Prometheus text page rather than
// JSON. Non-200 responses and transport failures wrap ErrNodeDown.
func (n *node) getRaw(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.addr+path, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w: %v", n.addr, ErrNodeDown, err)
	}
	resp, err := n.hc.Do(req)
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

// fmtFloat renders a float64 for a URL query parameter with exact
// round-trip precision.
func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
