package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/point"
	"repro/internal/wire"
)

// fakeMember is a member of the score band its /v1/range declares that
// answers every top-k read, /v1/topk or a /v1/batch query, with the
// points of pts it is asked for, and applies every update. It records
// the header of every /v1/topk and /v1/batch request.
type fakeMember struct {
	band string // the /v1/range body
	pts  []point.P

	mu      sync.Mutex
	headers []http.Header
}

func (m *fakeMember) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/range":
		fmt.Fprint(w, m.band)
	case "/v1/topk":
		m.record(r)
		k, err := strconv.Atoi(r.URL.Query().Get("k"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", wire.PointsType)
		w.Write(wire.AppendPoints(nil, m.pts[:min(k, len(m.pts))]))
	case "/v1/batch":
		m.record(r)
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ops, err := wire.ParseOps(body, nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		items := make([]wire.Item, len(ops))
		for i, op := range ops {
			items[i].OK = true
			if op.Op == "query" {
				items[i].Results = m.pts[:min(op.K, len(m.pts))]
			}
		}
		w.Header().Set("Content-Type", wire.BatchType)
		w.Write(wire.AppendItems(nil, items))
	default:
		http.NotFound(w, r)
	}
}

func (m *fakeMember) record(r *http.Request) {
	m.mu.Lock()
	m.headers = append(m.headers, r.Header)
	m.mu.Unlock()
}

// take returns the headers recorded since the last take.
func (m *fakeMember) take() []http.Header {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.headers
	m.headers = nil
	return out
}

// twoBands boots two fake members splitting the score line at 0.5, each
// holding three points of its band, and a cluster over them with the
// transport the cluster builds for itself.
func twoBands(t *testing.T) (*Cluster, *fakeMember, *fakeMember) {
	t.Helper()
	lo := &fakeMember{band: `{"lo":null,"hi":0.5,"n":3}`, pts: []point.P{{X: 4, Score: 0.4}, {X: 5, Score: 0.3}, {X: 6, Score: 0.2}}}
	hi := &fakeMember{band: `{"lo":0.5,"hi":null,"n":3}`, pts: []point.P{{X: 1, Score: 0.9}, {X: 2, Score: 0.8}, {X: 3, Score: 0.7}}}
	var urls []string
	for _, m := range []*fakeMember{lo, hi} {
		srv := httptest.NewServer(m)
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	c, err := New(Config{Members: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, lo, hi
}

// tracedCtx returns a context carrying a fresh trace.
func tracedCtx(id string) (context.Context, *obs.Trace) {
	tr := obs.NewTracer(0, 16).Start(id, "test")
	return obs.WithTrace(context.Background(), tr), tr
}

// TestSharedHeadersStayIntact runs traced and untraced TopK,
// QueryBatch and ApplyBatch calls at once, so under -race a write to a
// header map every request of its kind shares is a reported race; and
// afterwards the shared maps hold exactly what they held before.
func TestSharedHeadersStayIntact(t *testing.T) {
	wantTopK, wantBatch := topkHeader.Clone(), batchHeader.Clone()
	c, _, _ := twoBands(t)
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			if w%2 == 1 {
				ctx, _ = tracedCtx(fmt.Sprintf("shared-%d", w))
			}
			for i := range 20 {
				if got := c.TopK(ctx, 0, 10, 4); len(got) != 4 {
					t.Errorf("TopK answered %d points, want 4", len(got))
				}
				qs := []point.Query{{X1: 0, X2: 10, K: 2}, {X1: 0, X2: 10, K: 5}}
				if got := c.QueryBatch(ctx, qs); len(got[0]) != 2 || len(got[1]) != 5 {
					t.Errorf("QueryBatch answered %d and %d points, want 2 and 5", len(got[0]), len(got[1]))
				}
				x := float64(1000 + 100*w + i)
				// One op for each band.
				ops := []point.Op{{X: x, Score: x / 1e4}, {X: x + 0.5, Score: 0.5 + x/1e5}}
				for j, err := range c.ApplyBatch(ctx, ops) {
					if err != nil {
						t.Errorf("ApplyBatch op %d: %v", j, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(topkHeader, wantTopK) {
		t.Errorf("topkHeader = %v after the run, want %v", topkHeader, wantTopK)
	}
	if !reflect.DeepEqual(batchHeader, wantBatch) {
		t.Errorf("batchHeader = %v after the run, want %v", batchHeader, wantBatch)
	}
}

// TestMemberRequestHeaders: an untraced member request carries neither
// net/http's default User-Agent nor an Accept-Encoding, and a traced
// one carries the trace ID and the ID of the RPC span that sent it.
func TestMemberRequestHeaders(t *testing.T) {
	c, lo, hi := twoBands(t)
	ctx := context.Background()
	c.TopK(ctx, 0, 10, 1)
	c.ApplyBatch(ctx, []point.Op{{X: 7, Score: 0.1}})
	untraced := append(hi.take(), lo.take()...)
	if len(untraced) != 2 {
		t.Fatalf("a one-band read and a one-band write sent %d member requests, want 2", len(untraced))
	}
	for _, h := range untraced {
		for _, key := range []string{"User-Agent", "Accept-Encoding", obs.TraceHeader, obs.ParentSpanHeader} {
			if v, ok := h[key]; ok {
				t.Errorf("an untraced member request carries %s: %q", key, v)
			}
		}
	}

	tctx, tr := tracedCtx("headers")
	c.TopK(tctx, 0, 10, 1)
	got := hi.take()
	if len(got) != 1 {
		t.Fatalf("a traced TopK sent %d requests to the top band, want 1", len(got))
	}
	if id := got[0].Get(obs.TraceHeader); id != tr.ID {
		t.Errorf("traced read: %s = %q, want %q", obs.TraceHeader, id, tr.ID)
	}
	if got[0].Get(obs.ParentSpanHeader) == "" {
		t.Errorf("traced read carries no %s", obs.ParentSpanHeader)
	}
}

// TestRedirectIsAFailedMember: a member answering 307 is a failed
// member, as any other non-200 is: the RPC fails with ErrNodeDown, the
// member is marked, and the read fails over to its replica. The
// redirect, which points at the healthy replica, is not followed.
func TestRedirectIsAFailedMember(t *testing.T) {
	pts := []point.P{{X: 1, Score: 0.5}}
	good := &fakeMember{band: `{"lo":null,"hi":null,"n":1}`, pts: pts}
	goodSrv := httptest.NewServer(good)
	defer goodSrv.Close()
	var redirects atomic.Int64
	redirectSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/topk" {
			good.ServeHTTP(w, r)
			return
		}
		redirects.Add(1)
		http.Redirect(w, r, goodSrv.URL+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	}))
	defer redirectSrv.Close()
	c, err := New(Config{Members: []string{redirectSrv.URL, goodSrv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	redirecting := c.nodes[0]

	if _, err := redirecting.topk(context.Background(), nil, 0, 10, 1); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("a 307 answer: err = %v, want ErrNodeDown", err)
	}
	if n := len(good.take()); n != 0 {
		t.Fatalf("the redirect was followed: the replica got %d requests", n)
	}

	// Reads rotate the replica they try first: the first asks the
	// healthy one, the second the redirecting one, then fails over.
	for i := range 2 {
		if got := c.TopK(context.Background(), 0, 10, 1); !reflect.DeepEqual(got, pts) {
			t.Fatalf("read %d answered %v, want %v", i, got, pts)
		}
	}
	if n := redirects.Load(); n != 2 {
		t.Errorf("the redirecting member got %d requests, want 2", n)
	}
	if n := len(good.take()); n != 2 {
		t.Errorf("the healthy replica got %d requests, want 2: one read each, no followed redirect", n)
	}
	if n := c.ReadFailovers(); n != 1 {
		t.Errorf("ReadFailovers = %d, want 1", n)
	}
	redirecting.mu.Lock()
	fails := redirecting.fails
	redirecting.mu.Unlock()
	if fails != 1 {
		t.Errorf("the redirecting member has %d failures on record, want the failed-over read's 1", fails)
	}
}
