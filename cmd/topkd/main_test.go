package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	topk "repro"
	"repro/internal/serve"
)

// errBody is the structured v1 error envelope.
type errBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func newTestStore(t *testing.T, backend string) topk.Store {
	t.Helper()
	st, err := newStore(backend, topk.ShardedConfig{
		Config: topk.Config{ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 2048},
		Shards: 4,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(serve.New(newTestStore(t, "sharded"), serve.Options{}))
	t.Cleanup(srv.Close)
	return srv
}

func decode(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func decodeErr(t *testing.T, resp *http.Response, wantStatus int) errBody {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
	}
	var eb errBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code == "" || eb.Error.Message == "" {
		t.Fatalf("error body missing code/message: %+v", eb)
	}
	return eb
}

// TestEndpoints drives the /v1 surface end to end.
func TestEndpoints(t *testing.T) {
	srv := testServer(t)

	const prefix = "/v1"
	t.Run("prefix="+prefix, func(t *testing.T) {
		for i := 0; i < 20; i++ {
			body := fmt.Sprintf(`{"x":%d,"score":%d.5}`, i*10, i)
			resp, err := http.Post(srv.URL+prefix+"/insert", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				OK bool `json:"ok"`
				N  int  `json:"n"`
			}
			decode(t, resp, &out)
			if !out.OK || out.N != i+1 {
				t.Fatalf("insert %d: %+v", i, out)
			}
		}

		resp, err := http.Get(srv.URL + prefix + "/topk?x1=0&x2=95&k=3")
		if err != nil {
			t.Fatal(err)
		}
		var tk struct {
			Results []struct {
				X     float64 `json:"x"`
				Score float64 `json:"score"`
			} `json:"results"`
		}
		decode(t, resp, &tk)
		if len(tk.Results) != 3 || tk.Results[0].X != 90 || tk.Results[0].Score != 9.5 {
			t.Fatalf("topk: %+v", tk)
		}

		resp, err = http.Get(srv.URL + prefix + "/count?x1=0&x2=95")
		if err != nil {
			t.Fatal(err)
		}
		var cnt struct {
			Count int `json:"count"`
		}
		decode(t, resp, &cnt)
		if cnt.Count != 10 {
			t.Fatalf("count = %d, want 10", cnt.Count)
		}

		resp, err = http.Post(srv.URL+prefix+"/delete", "application/json", strings.NewReader(`{"x":90,"score":9.5}`))
		if err != nil {
			t.Fatal(err)
		}
		var del struct {
			Found bool `json:"found"`
			N     int  `json:"n"`
		}
		decode(t, resp, &del)
		if !del.Found || del.N != 19 {
			t.Fatalf("delete: %+v", del)
		}
		resp, err = http.Post(srv.URL+prefix+"/delete", "application/json", strings.NewReader(`{"x":90,"score":9.5}`))
		if err != nil {
			t.Fatal(err)
		}
		decode(t, resp, &del)
		if del.Found {
			t.Fatal("second delete reported found")
		}

		resp, err = http.Get(srv.URL + prefix + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			N      int   `json:"n"`
			Shards int   `json:"shards"`
			Writes int64 `json:"writes"`
		}
		decode(t, resp, &st)
		if st.N != 19 || st.Shards < 1 {
			t.Fatalf("stats: %+v", st)
		}
	})

	// Routes live under /v1 only: the unversioned path is a 404.
	resp, err := http.Get(srv.URL + "/topk?x1=0&x2=95&k=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /topk status %d, want 404", resp.StatusCode)
	}
}

// TestBatchRoundTrip: POST /v1/batch applies a mixed
// insert/delete/query batch and reports per-op outcomes in request
// order; updates run before queries, so the query half observes them.
func TestBatchRoundTrip(t *testing.T) {
	srv := testServer(t)

	// Seed two points.
	for _, body := range []string{`{"x":10,"score":1.5}`, `{"x":20,"score":2.5}`} {
		resp, err := http.Post(srv.URL+"/v1/insert", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	batch := `{"ops":[
		{"op":"insert","x":30,"score":3.5},
		{"op":"delete","x":10,"score":1.5},
		{"op":"query","x1":0,"x2":100,"k":10},
		{"op":"insert","x":20,"score":9.9},
		{"op":"delete","x":77,"score":7.7},
		{"op":"insert","x":40,"score":2.5}
	]}`
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Results []struct {
			OK    bool `json:"ok"`
			Error *struct {
				Code string `json:"code"`
			} `json:"error"`
			Results []struct {
				X     float64 `json:"x"`
				Score float64 `json:"score"`
			} `json:"results"`
		} `json:"results"`
		N int `json:"n"`
	}
	decode(t, resp, &out)
	if len(out.Results) != 6 {
		t.Fatalf("got %d results", len(out.Results))
	}
	if !out.Results[0].OK || !out.Results[1].OK {
		t.Fatalf("insert/delete ops failed: %+v", out.Results[:2])
	}
	// The query ran after the updates: 10 is gone, 30 is present.
	q := out.Results[2]
	if !q.OK || len(q.Results) != 2 {
		t.Fatalf("query item: %+v", q)
	}
	if q.Results[0].X != 30 || q.Results[0].Score != 3.5 || q.Results[1].X != 20 {
		t.Fatalf("query results: %+v", q.Results)
	}
	// Duplicate position (20) and duplicate score (2.5) are per-op
	// rejections, not whole-batch failures.
	if out.Results[3].OK || out.Results[3].Error.Code != "duplicate_position" {
		t.Fatalf("duplicate position op: %+v", out.Results[3])
	}
	if out.Results[4].OK || out.Results[4].Error.Code != "not_found" {
		t.Fatalf("absent delete op: %+v", out.Results[4])
	}
	if out.Results[5].OK || out.Results[5].Error.Code != "duplicate_score" {
		t.Fatalf("duplicate score op: %+v", out.Results[5])
	}
	if out.N != 2 {
		t.Fatalf("n = %d, want 2", out.N)
	}

	// A batch on a near-empty store whose query k exceeds the
	// PRE-batch live size: the clamp must account for the batch's own
	// inserts, so both fresh points come back.
	srv2 := testServer(t)
	resp, err = http.Post(srv2.URL+"/v1/batch", "application/json", strings.NewReader(
		`{"ops":[{"op":"insert","x":1,"score":1},{"op":"insert","x":2,"score":2},{"op":"query","x1":0,"x2":10,"k":5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var out2 struct {
		Results []struct {
			OK      bool  `json:"ok"`
			Results []any `json:"results"`
		} `json:"results"`
	}
	decode(t, resp, &out2)
	if got := len(out2.Results[2].Results); got != 2 {
		t.Fatalf("query after same-batch inserts returned %d results, want 2", got)
	}

	// An unknown op tag fails the whole batch as a 400 before anything
	// is applied.
	resp, err = http.Post(srv.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"ops":[{"op":"upsert","x":1,"score":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if eb := decodeErr(t, resp, http.StatusBadRequest); eb.Error.Code != "bad_request" {
		t.Fatalf("unknown op code: %+v", eb)
	}
}

func TestBadRequests(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		method, path, body string
	}{
		{"POST", "/v1/insert", "not json"},
		{"POST", "/v1/delete", "{"},
		{"POST", "/v1/batch", "]["},
		{"GET", "/v1/topk?x1=a&x2=1&k=1", ""},
		{"GET", "/v1/topk?x1=0&x2=1", ""},
		{"GET", "/v1/count?x1=0", ""},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if eb := decodeErr(t, resp, http.StatusBadRequest); eb.Error.Code != "bad_request" {
			t.Fatalf("%s %s: code %q, want bad_request", c.method, c.path, eb.Error.Code)
		}
	}
	// An absurd k must be served (clamped to the live size), not
	// size a multi-gigabyte allocation.
	resp2, err := http.Get(srv.URL + "/v1/topk?x1=-1e18&x2=1e18&k=2000000000")
	if err != nil {
		t.Fatal(err)
	}
	var tk struct {
		Results []any `json:"results"`
	}
	decode(t, resp2, &tk)
	if len(tk.Results) != 0 {
		t.Fatalf("huge k on empty index returned %d results", len(tk.Results))
	}
	// Wrong method on a registered pattern.
	resp, err := http.Get(srv.URL + "/v1/insert")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/insert: status %d, want 405", resp.StatusCode)
	}
}

// TestDuplicateInsert: duplicate positions and duplicate scores are
// 409s with distinct machine-readable codes, and the server keeps
// serving afterwards.
func TestDuplicateInsert(t *testing.T) {
	srv := testServer(t)
	body := `{"x":42.5,"score":7.25}`
	resp, err := http.Post(srv.URL+"/v1/insert", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(srv.URL+"/v1/insert", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if eb := decodeErr(t, resp, http.StatusConflict); eb.Error.Code != "duplicate_position" {
		t.Fatalf("duplicate insert code: %+v", eb)
	}
	// Same position, different score is still a duplicate position.
	resp, err = http.Post(srv.URL+"/v1/insert", "application/json", strings.NewReader(`{"x":42.5,"score":9.9}`))
	if err != nil {
		t.Fatal(err)
	}
	if eb := decodeErr(t, resp, http.StatusConflict); eb.Error.Code != "duplicate_position" {
		t.Fatalf("same-position insert code: %+v", eb)
	}
	// Fresh position, occupied score: duplicate_score.
	resp, err = http.Post(srv.URL+"/v1/insert", "application/json", strings.NewReader(`{"x":99,"score":7.25}`))
	if err != nil {
		t.Fatal(err)
	}
	if eb := decodeErr(t, resp, http.StatusConflict); eb.Error.Code != "duplicate_score" {
		t.Fatalf("duplicate-score insert code: %+v", eb)
	}
	// The index still serves.
	resp, err = http.Get(srv.URL + "/v1/topk?x1=0&x2=100&k=1")
	if err != nil {
		t.Fatal(err)
	}
	var tk struct {
		Results []struct {
			X float64 `json:"x"`
		} `json:"results"`
	}
	decode(t, resp, &tk)
	if len(tk.Results) != 1 || tk.Results[0].X != 42.5 {
		t.Fatalf("post-conflict topk: %+v", tk)
	}
}

// TestSingleBackend: the handlers are written against topk.Store, so
// the sequential backend behind a mutex serves the same API (minus
// the shards gauge in /v1/stats).
func TestSingleBackend(t *testing.T) {
	srv := httptest.NewServer(serve.New(newTestStore(t, "single"), serve.Options{}))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/insert", "application/json", strings.NewReader(`{"x":1,"score":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/v1/topk?x1=0&x2=10&k=5")
	if err != nil {
		t.Fatal(err)
	}
	var tk struct {
		Results []struct {
			X float64 `json:"x"`
		} `json:"results"`
	}
	decode(t, resp, &tk)
	if len(tk.Results) != 1 || tk.Results[0].X != 1 {
		t.Fatalf("topk on single backend: %+v", tk)
	}
	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	decode(t, resp, &st)
	if _, ok := st["shards"]; ok {
		t.Fatalf("single backend reported shards: %v", st)
	}
	if _, err := newStore("bogus", topk.ShardedConfig{}, nil); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestRecoverMiddleware: a panicking handler yields a structured JSON
// 500, not a severed connection.
func TestRecoverMiddleware(t *testing.T) {
	srv := httptest.NewServer(serve.WithRecover(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	})))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	eb := decodeErr(t, resp, http.StatusInternalServerError)
	if eb.Error.Code != "internal" || !strings.Contains(eb.Error.Message, "boom") {
		t.Fatalf("error body: %+v", eb)
	}
}

// TestConcurrentClients hammers the server from parallel goroutines,
// mimicking real serving traffic end to end through HTTP — mixing
// point inserts, reads and batch calls.
func TestConcurrentClients(t *testing.T) {
	srv := testServer(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				var resp *http.Response
				var err error
				if i%2 == 0 {
					body := fmt.Sprintf(`{"x":%d.25,"score":%d.75}`, w*1000+i, w*1000+i)
					resp, err = http.Post(srv.URL+"/v1/insert", "application/json", strings.NewReader(body))
				} else {
					body := fmt.Sprintf(`{"ops":[{"op":"insert","x":%d.25,"score":%d.75},{"op":"query","x1":0,"x2":10000,"k":5}]}`,
						w*1000+i, w*1000+i)
					resp, err = http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(body))
				}
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				resp, err = http.Get(srv.URL + "/v1/topk?x1=0&x2=10000&k=5")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		N int `json:"n"`
	}
	decode(t, resp, &st)
	if st.N != 8*25 {
		t.Fatalf("n = %d, want %d", st.N, 8*25)
	}
}

// TestGracefulShutdown: cancelling serve's context (what SIGINT/
// SIGTERM do in main) must let an in-flight request finish and write
// its response, then return nil so topkd exits 0 — not kill the
// connection mid-write.
func TestGracefulShutdown(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"ok":true}`)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serveLoop(ctx, &http.Server{Handler: h}, ln, 5*time.Second, nil, nil) }()

	reqDone := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err == nil {
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			} else if _, rerr := io.ReadAll(resp.Body); rerr != nil {
				err = rerr
			}
		}
		reqDone <- err
	}()

	<-entered // the request is in flight
	cancel()  // "SIGTERM"
	select {
	case err := <-served:
		t.Fatalf("serve returned before draining: %v", err)
	case <-time.After(50 * time.Millisecond):
		// still draining, as it should be
	}
	close(release)
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve after drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after the in-flight request finished")
	}
	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request was not drained cleanly: %v", err)
	}
	// New connections must be refused after shutdown.
	if _, err := http.Get("http://" + ln.Addr().String() + "/"); err == nil {
		t.Fatal("server still accepting after Shutdown")
	}
}

// TestTopKPagination: ?offset pages through a large answer — each
// page is the corresponding slice of the full descending-score
// answer, the tail page is truncated, an offset past the end is
// empty, and a malformed or negative offset is a structured 400.
func TestTopKPagination(t *testing.T) {
	srv := testServer(t)
	for i := 0; i < 20; i++ {
		body := fmt.Sprintf(`{"x":%d,"score":%d.5}`, i*10, i)
		resp, err := http.Post(srv.URL+"/v1/insert", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	type tk struct {
		Results []struct {
			X     float64 `json:"x"`
			Score float64 `json:"score"`
		} `json:"results"`
		Offset int `json:"offset"`
	}
	get := func(query string) tk {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/topk?" + query)
		if err != nil {
			t.Fatal(err)
		}
		var out tk
		decode(t, resp, &out)
		return out
	}
	full := get("x1=0&x2=200&k=20")
	if len(full.Results) != 20 || full.Offset != 0 {
		t.Fatalf("full answer: %+v", full)
	}
	// Page 2 of size 5 is exactly full[5:10].
	page := get("x1=0&x2=200&k=5&offset=5")
	if len(page.Results) != 5 || page.Offset != 5 {
		t.Fatalf("page: %+v", page)
	}
	for i, r := range page.Results {
		if r != full.Results[5+i] {
			t.Fatalf("page[%d] = %+v, want %+v", i, r, full.Results[5+i])
		}
	}
	// Tail page truncates; offset past the end is empty, not an error.
	if tail := get("x1=0&x2=200&k=10&offset=15"); len(tail.Results) != 5 {
		t.Fatalf("tail page: %+v", tail)
	}
	if past := get("x1=0&x2=200&k=5&offset=100"); len(past.Results) != 0 {
		t.Fatalf("past-the-end page: %+v", past)
	}
	// Huge offset+k must not size an allocation (both clamp to n).
	if huge := get("x1=0&x2=200&k=2000000000&offset=2000000000"); len(huge.Results) != 0 {
		t.Fatalf("huge page: %+v", huge)
	}
	// Pages empty by construction (k=0, or offset at/past the live
	// size) are served without fetching anything — clampPage returns 0.
	if z := get("x1=0&x2=200&k=0&offset=1000000"); len(z.Results) != 0 {
		t.Fatalf("k=0 page: %+v", z)
	}
	if st := newTestStore(t, "sharded"); serve.ClampPage(st, 5, 0) != 0 || serve.ClampPage(st, 0, -3) != 0 || serve.ClampPage(st, 0, 5) != 0 {
		t.Fatal("ClampPage must be 0 for empty-by-construction pages")
	}
	for _, q := range []string{"x1=0&x2=200&k=5&offset=-1", "x1=0&x2=200&k=5&offset=x"} {
		resp, err := http.Get(srv.URL + "/v1/topk?" + q)
		if err != nil {
			t.Fatal(err)
		}
		if eb := decodeErr(t, resp, http.StatusBadRequest); eb.Error.Code != "bad_request" {
			t.Fatalf("offset %q: %+v", q, eb)
		}
	}
}

// TestMetricsEndpoint: /v1/metrics serves Prometheus text format —
// fleet gauges and counters on both backends, shard lifecycle and
// topology epoch only where a router exists.
func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Post(srv.URL+"/v1/insert", "application/json", strings.NewReader(`{"x":1,"score":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	fetch := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("content type %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	body := fetch(srv.URL + "/v1/metrics")
	for _, want := range []string{
		"topkd_points_live 1",
		"# TYPE topkd_io_reads_total counter",
		"topkd_io_writes_total ",
		"topkd_blocks_live ",
		"topkd_blocks_peak ",
		"topkd_shards 1",
		"topkd_shard_splits_total 0",
		"topkd_shard_merges_total 0",
		"# TYPE topkd_topology_epoch gauge",
		"topkd_topology_epoch ",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	// The single backend has no shard topology: fleet metrics only.
	single := httptest.NewServer(serve.New(newTestStore(t, "single"), serve.Options{}))
	defer single.Close()
	sbody := fetch(single.URL + "/v1/metrics")
	if !strings.Contains(sbody, "topkd_points_live") {
		t.Fatalf("single-backend metrics: %s", sbody)
	}
	for _, absent := range []string{"topkd_shards", "topkd_shard_splits_total", "topkd_topology_epoch"} {
		if strings.Contains(sbody, absent) {
			t.Fatalf("single backend reported %q:\n%s", absent, sbody)
		}
	}
}

// TestMaintenanceFlagWiring: a sharded store built the way main does
// with -maintenance set runs the background loop (observable via the
// optional Close interface), and Close is what the shutdown path
// calls after draining.
func TestMaintenanceFlagWiring(t *testing.T) {
	st, err := newStore("sharded", topk.ShardedConfig{
		Config:              topk.Config{ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 2048},
		Shards:              4,
		MaintenanceInterval: time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := st.(interface{ Close() error })
	if !ok {
		t.Fatal("sharded store does not expose Close")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The single backend has no loop; the shutdown path must cope.
	if _, ok := newTestStore(t, "single").(interface{ Close() error }); ok {
		t.Fatal("single backend unexpectedly exposes Close")
	}
}

// TestStatsLifecycleCounters: the sharded backend reports shard
// split/merge counters under /v1/stats; the single backend, which has
// no lifecycle, omits them.
func TestStatsLifecycleCounters(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	decode(t, resp, &st)
	for _, key := range []string{"shards", "splits", "merges"} {
		if _, ok := st[key]; !ok {
			t.Fatalf("stats missing %q: %v", key, st)
		}
	}

	single := httptest.NewServer(serve.New(newTestStore(t, "single"), serve.Options{}))
	defer single.Close()
	resp, err = http.Get(single.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sst map[string]any
	decode(t, resp, &sst)
	for _, key := range []string{"shards", "splits", "merges"} {
		if _, ok := sst[key]; ok {
			t.Fatalf("single backend reported %q: %v", key, sst)
		}
	}
}

// TestParseRange covers the -range member flag: open ends, explicit
// bands, and rejected forms.
func TestParseRange(t *testing.T) {
	if lo, hi, err := parseRange(":5"); err != nil || !math.IsInf(lo, -1) || hi != 5 {
		t.Fatalf("parseRange(:5) = %v %v %v", lo, hi, err)
	}
	if lo, hi, err := parseRange("5:"); err != nil || lo != 5 || !math.IsInf(hi, 1) {
		t.Fatalf("parseRange(5:) = %v %v %v", lo, hi, err)
	}
	if lo, hi, err := parseRange("-2.5:7"); err != nil || lo != -2.5 || hi != 7 {
		t.Fatalf("parseRange(-2.5:7) = %v %v %v", lo, hi, err)
	}
	if lo, hi, err := parseRange(":"); err != nil || !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
		t.Fatalf("parseRange(:) = %v %v %v", lo, hi, err)
	}
	for _, bad := range []string{"", "5", "7:5", "5:5", "x:1", "1:y"} {
		if _, _, err := parseRange(bad); err == nil {
			t.Fatalf("parseRange(%q) accepted", bad)
		}
	}
}

// TestGatewayEndToEnd boots the full three-tier stack in-process: two
// banded member topkd handler trees over httptest, a topk.Cluster
// dialing them, and a GATEWAY topkd handler tree over the Cluster —
// then drives the gateway exactly like a client would and checks the
// answers, the aggregated stats, and the cluster metrics.
func TestGatewayEndToEnd(t *testing.T) {
	mkMember := func(lo, hi float64) *httptest.Server {
		st, err := topk.NewSharded(topk.ShardedConfig{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		return httptest.NewServer(serve.New(st, serve.Options{Lo: lo, Hi: hi}))
	}
	a := mkMember(math.Inf(-1), 5)
	b := mkMember(5, math.Inf(1))
	defer a.Close()
	defer b.Close()
	cl, err := topk.NewCluster(topk.ClusterConfig{
		Members: []string{a.URL, b.URL},
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	gw := httptest.NewServer(serve.New(cl, serve.Options{}))
	defer gw.Close()

	// Writes through the gateway land on the right members.
	for i := 0; i < 20; i++ {
		body := fmt.Sprintf(`{"x":%d,"score":%g}`, i, float64(i)/2)
		resp, err := http.Post(gw.URL+"/v1/insert", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("insert %d: status %d", i, resp.StatusCode)
		}
	}
	// Read back through the gateway: global top-3 spans the band cut.
	resp, err := http.Get(gw.URL + "/v1/topk?x1=0&x2=100&k=3")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Results []struct {
			X     float64 `json:"x"`
			Score float64 `json:"score"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(out.Results) != 3 || out.Results[0].Score != 9.5 || out.Results[1].Score != 9 || out.Results[2].Score != 8.5 {
		t.Fatalf("gateway topk = %+v", out.Results)
	}
	// A duplicate through the gateway is a 409, same as local backends.
	resp, err = http.Post(gw.URL+"/v1/insert", "application/json", strings.NewReader(`{"x":999,"score":4.5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate via gateway: status %d, want 409", resp.StatusCode)
	}
	// Aggregated stats expose the fleet view.
	resp, err = http.Get(gw.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats["n"].(float64) != 20 || stats["nodes"].(float64) != 2 || stats["ejected"].(float64) != 0 {
		t.Fatalf("gateway stats = %v", stats)
	}
	// Prometheus metrics carry the cluster gauges.
	resp, err = http.Get(gw.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "topkd_cluster_nodes 2") {
		t.Fatalf("metrics missing cluster gauges:\n%s", text)
	}
}

// TestShutdownFlushesAcceptedWrites pins the drain contract of the
// group-commit write path: writes acknowledged with 202 before
// "SIGTERM" must be committed by the post-drain store Close — exactly
// main's shutdown sequence — even when the batching window and size
// trigger are far too large to have fired on their own. No
// accepted-then-dropped writes.
func TestShutdownFlushesAcceptedWrites(t *testing.T) {
	inner := newTestStore(t, "sharded")
	bt, err := topk.NewBatched(inner, topk.BatchedConfig{
		Window:   time.Hour, // only shutdown may flush
		MaxBatch: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := serve.New(bt, serve.Options{AsyncAck: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serveLoop(ctx, &http.Server{Handler: h}, ln, 5*time.Second, nil, nil) }()

	// Part-fill the queue: a handful of accepted writes, nowhere near
	// either flush trigger.
	const writes = 7
	base := "http://" + ln.Addr().String()
	for i := 0; i < writes; i++ {
		body := fmt.Sprintf(`{"x": %d, "score": %d}`, 100+i, 200+i)
		resp, err := http.Post(base+"/v1/insert", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("write %d: status %d, want 202", i, resp.StatusCode)
		}
	}
	if got := inner.Len(); got != 0 {
		t.Fatalf("inner store has %d points before shutdown; the flush triggers fired early", got)
	}

	cancel() // "SIGTERM"
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveLoop did not drain")
	}
	// main closes the store after the drain; Batched.Close flushes the
	// part-filled queue into the inner store first.
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
	if got := inner.Len(); got != writes {
		t.Fatalf("after shutdown flush: inner store has %d points, want %d (accepted writes dropped)", got, writes)
	}
}

// TestValidateTraceSample: -trace-sample accepts exactly [0, 1] and
// rejects NaN and out-of-range values at startup instead of silently
// tracing nothing (or everything).
// TestPreloadKeepsBand: a -range member preloads only its band's share
// of the generated points, so members started with the same -n and
// -seed hold disjoint slices that tile one point set — the invariant a
// gateway's score-ordered reads rely on.
func TestPreloadKeepsBand(t *testing.T) {
	all := preload(500, 3, math.Inf(-1), math.Inf(1))
	if len(all) != 500 {
		t.Fatalf("unbanded preload kept %d of 500 points", len(all))
	}
	want := map[topk.Result]bool{}
	for _, p := range all {
		want[p] = true
	}
	for _, b := range [][2]float64{{math.Inf(-1), 0.3}, {0.3, 0.7}, {0.7, math.Inf(1)}} {
		for _, p := range preload(500, 3, b[0], b[1]) {
			if p.Score < b[0] || p.Score >= b[1] || !want[p] {
				t.Fatalf("band [%v, %v) preloaded %v: outside the band or twice", b[0], b[1], p)
			}
			delete(want, p)
		}
	}
	if len(want) != 0 {
		t.Fatalf("%d points fell in no band", len(want))
	}
}

func TestValidateTraceSample(t *testing.T) {
	for _, v := range []float64{0, 0.5, 1} {
		if err := validateTraceSample(v); err != nil {
			t.Errorf("validateTraceSample(%v) = %v, want nil", v, err)
		}
	}
	for _, v := range []float64{math.NaN(), -0.1, 1.1, -1, 2, math.Inf(1), math.Inf(-1)} {
		if err := validateTraceSample(v); err == nil {
			t.Errorf("validateTraceSample(%v) = nil, want rejection", v)
		}
	}
}
