package serve

// Endpoint tests for the surface added with the cluster tier:
// /v1/epoch, /v1/range, the admin twins of ResetStats/DropCache,
// offset pagination on /v1/batch query ops, and member band
// enforcement. The pre-existing handler behavior keeps its coverage in
// cmd/topkd's test suite, which mounts this same package.

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	topk "repro"
	"repro/internal/workload"
)

func testStore(t *testing.T, n int) topk.Store {
	t.Helper()
	pts := workload.NewGen(7).Uniform(n, 1e6)
	st, err := topk.LoadSharded(topk.ShardedConfig{
		Config: topk.Config{BlockWords: 64, ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 2048},
		Shards: 4,
	}, pts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v (%s)", url, err, data)
		}
	}
	return resp.StatusCode
}

func TestEpochEndpoint(t *testing.T) {
	st := testStore(t, 500)
	srv := httptest.NewServer(New(st, Options{}))
	defer srv.Close()
	var out struct {
		Epoch int64 `json:"epoch"`
	}
	if code := getJSON(t, srv.URL+"/v1/epoch", &out); code != 200 {
		t.Fatalf("epoch status %d", code)
	}
	sh := st.(*topk.Sharded)
	if out.Epoch != sh.Epoch() || out.Epoch < 1 {
		t.Fatalf("epoch %d, store says %d", out.Epoch, sh.Epoch())
	}
	sh.Rebalance(2)
	before := out.Epoch
	getJSON(t, srv.URL+"/v1/epoch", &out)
	if out.Epoch <= before {
		t.Fatalf("epoch did not advance after rebalance: %d -> %d", before, out.Epoch)
	}
	// Epoch-less backends still answer (0), keeping the endpoint a
	// universal health probe.
	idx, err := topk.New(topk.Config{})
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(New(LockedIndex(idx), Options{}))
	defer single.Close()
	getJSON(t, single.URL+"/v1/epoch", &out)
	if out.Epoch != 0 {
		t.Fatalf("single-backend epoch %d, want 0", out.Epoch)
	}
	// Routes exist under /v1 only.
	if code := getJSON(t, srv.URL+"/epoch", nil); code != 404 {
		t.Fatalf("/epoch status %d, want 404", code)
	}
}

func TestRangeEndpoint(t *testing.T) {
	st := testStore(t, 100)
	banded := httptest.NewServer(New(st, Options{Lo: math.Inf(-1), Hi: 5}))
	defer banded.Close()
	var out struct {
		Lo *float64 `json:"lo"`
		Hi *float64 `json:"hi"`
		N  int      `json:"n"`
	}
	getJSON(t, banded.URL+"/v1/range", &out)
	if out.Lo != nil || out.Hi == nil || *out.Hi != 5 || out.N != st.Len() {
		t.Fatalf("banded range = %+v", out)
	}
	unbanded := httptest.NewServer(New(st, Options{}))
	defer unbanded.Close()
	getJSON(t, unbanded.URL+"/v1/range", &out)
	if out.Lo != nil || out.Hi != nil {
		t.Fatalf("unbanded range = %+v, want open ends", out)
	}
}

func TestAdminEndpoints(t *testing.T) {
	st := testStore(t, 2000)
	srv := httptest.NewServer(New(st, Options{}))
	defer srv.Close()
	st.TopK(0, 1e6, 100) // generate some I/O
	if st.Stats().Reads == 0 {
		t.Skip("fixture generated no reads")
	}
	var ok struct {
		OK bool `json:"ok"`
	}
	if code := postJSON(t, srv.URL+"/v1/stats/reset", "", &ok); code != 200 || !ok.OK {
		t.Fatalf("stats/reset: %d %+v", code, ok)
	}
	if r := st.Stats().Reads; r != 0 {
		t.Fatalf("reads = %d after reset", r)
	}
	if code := postJSON(t, srv.URL+"/v1/cache/drop", "", &ok); code != 200 || !ok.OK {
		t.Fatalf("cache/drop: %d %+v", code, ok)
	}
	base := st.Stats().Reads
	st.TopK(0, 1e6, 100)
	if st.Stats().Reads == base {
		t.Fatal("query after cache drop charged no reads — pool not evicted")
	}
}

// TestBatchQueryOffset: query ops in /v1/batch paginate exactly like
// GET /v1/topk — same clamping, same structured-400 on a negative
// offset.
func TestBatchQueryOffset(t *testing.T) {
	st := testStore(t, 1000)
	srv := httptest.NewServer(New(st, Options{}))
	defer srv.Close()

	page := func(off, k int) []topk.Result {
		res := st.TopK(0, 1e6, ClampPage(st, off, k))
		if off < len(res) {
			return res[off:]
		}
		return nil
	}
	var out struct {
		Results []struct {
			OK      bool `json:"ok"`
			Results []struct {
				X     float64 `json:"x"`
				Score float64 `json:"score"`
			} `json:"results"`
		} `json:"results"`
	}
	body := `{"ops":[
		{"op":"query","x1":0,"x2":1e6,"k":5},
		{"op":"query","x1":0,"x2":1e6,"k":5,"offset":5},
		{"op":"query","x1":0,"x2":1e6,"k":5,"offset":100000}]}`
	if code := postJSON(t, srv.URL+"/v1/batch", body, &out); code != 200 {
		t.Fatalf("batch status %d", code)
	}
	for i, off := range []int{0, 5} {
		want := page(off, 5)
		got := out.Results[i].Results
		if len(got) != len(want) {
			t.Fatalf("op %d: %d results, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j].X != want[j].X || got[j].Score != want[j].Score {
				t.Fatalf("op %d result %d: (%v,%v) want (%v,%v)", i, j, got[j].X, got[j].Score, want[j].X, want[j].Score)
			}
		}
	}
	// Page 1 and page 2 must tile: no overlap, no gap.
	if out.Results[0].Results[4].Score <= out.Results[1].Results[0].Score {
		t.Fatal("page 2 does not continue strictly below page 1")
	}
	if len(out.Results[2].Results) != 0 {
		t.Fatalf("offset past live size returned %d results", len(out.Results[2].Results))
	}
	// Negative offset: structured 400 for the whole batch, like an
	// unknown op.
	var eb struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	code := postJSON(t, srv.URL+"/v1/batch", `{"ops":[{"op":"query","x1":0,"x2":1,"k":5,"offset":-1}]}`, &eb)
	if code != 400 || eb.Error.Code != "bad_request" {
		t.Fatalf("negative offset: status %d code %q, want 400 bad_request", code, eb.Error.Code)
	}
}

// TestBandEnforcement: a banded member rejects out-of-band inserts
// with a structured 400 (out_of_range) on both the single and the
// batch path — a misrouted write must fail loudly.
func TestBandEnforcement(t *testing.T) {
	idx, err := topk.NewSharded(topk.ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(idx, Options{Lo: 10, Hi: 20}))
	defer srv.Close()
	var eb struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if code := postJSON(t, srv.URL+"/v1/insert", `{"x":1,"score":25}`, &eb); code != 400 || eb.Error.Code != "out_of_range" {
		t.Fatalf("out-of-band insert: %d %q", code, eb.Error.Code)
	}
	// Upper bound is exclusive, lower inclusive.
	if code := postJSON(t, srv.URL+"/v1/insert", `{"x":1,"score":20}`, &eb); code != 400 {
		t.Fatalf("score == hi must be out of band, got %d", code)
	}
	if code := postJSON(t, srv.URL+"/v1/insert", `{"x":1,"score":10}`, nil); code != 200 {
		t.Fatalf("score == lo must be in band, got %d", code)
	}
	var out struct {
		Results []struct {
			OK    bool `json:"ok"`
			Error *struct {
				Code string `json:"code"`
			} `json:"error"`
		} `json:"results"`
	}
	body := `{"ops":[{"op":"insert","x":2,"score":15},{"op":"insert","x":3,"score":99},{"op":"delete","x":4,"score":99}]}`
	if code := postJSON(t, srv.URL+"/v1/batch", body, &out); code != 200 {
		t.Fatalf("batch status %d", code)
	}
	if !out.Results[0].OK {
		t.Fatalf("in-band batch insert rejected: %+v", out.Results[0])
	}
	if out.Results[1].OK || out.Results[1].Error == nil || out.Results[1].Error.Code != "out_of_range" {
		t.Fatalf("out-of-band batch insert: %+v", out.Results[1])
	}
	// Deletes are not band-checked: a delete of a point that cannot be
	// here reports not_found naturally.
	if out.Results[2].OK || out.Results[2].Error == nil || out.Results[2].Error.Code != "not_found" {
		t.Fatalf("out-of-band batch delete: %+v", out.Results[2])
	}
	if idx.Len() != 2 {
		t.Fatalf("n = %d, want the 2 in-band inserts", idx.Len())
	}
}

// applyOnly is a member store that applies every update and holds
// nothing, so a member's allocations are the serving stack's alone.
type applyOnly struct {
	topk.Store
	n int
}

func (s *applyOnly) Len() int { return s.n }

func (s *applyOnly) ApplyBatch(ops []topk.BatchOp) []error {
	s.n += len(ops)
	return make([]error, len(ops))
}

// TestClusterInsertAllocs pins the allocations of one warm single-op
// Cluster.Insert against an in-process member, counted across the whole
// process: the gateway's ops body, the HTTP round trip both ways, the
// member's handler and its items body. It measured 88 on go1.24 (110
// through an http.Client with per-band and per-replica fan-out tables,
// 147 when the hop spoke JSON through encoding/json); the ceiling
// leaves 2 for the runtime, and an encoding/json round trip put back on
// the hop (make gate-negative) fails it.
func TestClusterInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts of pooled paths are not meaningful under the race detector")
	}
	srv := httptest.NewServer(New(&applyOnly{}, Options{}))
	defer srv.Close()
	cl, err := topk.NewCluster(topk.ClusterConfig{Members: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	i := 0
	insert := func() {
		i++
		if err := cl.Insert(float64(i), float64(i)+0.5); err != nil {
			t.Fatal(err)
		}
	}
	for range 100 {
		insert()
	}
	if allocs := testing.AllocsPerRun(200, insert); allocs > 90 {
		t.Fatalf("a warm single-op Cluster.Insert allocates %.1f times, want at most 90", allocs)
	}
}

// answerOnly is a member store whose every TopK answers the same
// points, so a member's allocations are the serving stack's alone.
type answerOnly struct {
	topk.Store
	pts []topk.Result
}

func (s answerOnly) Len() int { return len(s.pts) }

func (s answerOnly) TopK(x1, x2 float64, k int) []topk.Result { return s.pts[:min(k, len(s.pts))] }

// TestClusterTopKAllocs pins the allocations of one warm single-member
// Cluster.TopK, counted across the whole process like
// TestClusterInsertAllocs: the gateway's request, the HTTP round trip
// both ways, the member's handler and its points body. It measured 68
// on go1.24 (83 through an http.Client, with a header map per request
// and a heap status wrapper on each end); the ceiling leaves 2 for the
// runtime, and an http.Client put back on the hop (make gate-negative)
// fails it.
func TestClusterTopKAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts of pooled paths are not meaningful under the race detector")
	}
	pts := []topk.Result{{X: 1, Score: 0.75}, {X: 2, Score: 0.5}, {X: 3, Score: 0.25}}
	srv := httptest.NewServer(New(answerOnly{pts: pts}, Options{}))
	defer srv.Close()
	cl, err := topk.NewCluster(topk.ClusterConfig{Members: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	read := func() {
		if got := cl.TopK(0, 10, 3); len(got) != len(pts) {
			t.Fatalf("TopK answered %v, want %v", got, pts)
		}
	}
	for range 100 {
		read()
	}
	if allocs := testing.AllocsPerRun(200, read); allocs > 70 {
		t.Fatalf("a warm single-member Cluster.TopK allocates %.1f times, want at most 70", allocs)
	}
}
