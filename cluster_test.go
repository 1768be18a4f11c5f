package topk_test

// Cluster correctness suite. Members are real HTTP servers (httptest)
// mounting internal/serve over local Sharded stores, so every test
// exercises the full wire path: gateway routing -> JSON -> member
// store -> JSON -> gateway merge. The oracle is always a single
// sequential Index over the same point set — the differential bar is
// byte-identical answers (reflect.DeepEqual), exactly like the
// Sharded ≡ Index suite.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	topk "repro"
	"repro/internal/serve"
	"repro/internal/wire"
	"repro/internal/workload"
)

func testClusterCfg() topk.Config {
	return topk.Config{BlockWords: 64, ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 2048}
}

// bandSpec declares one replica group of a test fleet.
type bandSpec struct {
	lo, hi   float64 // score band [lo, hi)
	replicas int
}

// testFleet is a booted in-process member fleet.
type testFleet struct {
	servers [][]*httptest.Server // by band, then replica
	addrs   []string
}

func (f *testFleet) close() {
	for _, band := range f.servers {
		for _, s := range band {
			s.Close()
		}
	}
}

// bootFleet starts one httptest member per replica of every band, each
// loaded with the band's slice of pts (replicas of a band are
// identical, as the cluster requires).
func bootFleet(t *testing.T, pts []topk.Result, bands []bandSpec) *testFleet {
	t.Helper()
	f := &testFleet{}
	for _, b := range bands {
		var bandPts []topk.Result
		for _, p := range pts {
			if b.lo <= p.Score && p.Score < b.hi {
				bandPts = append(bandPts, p)
			}
		}
		var replicas []*httptest.Server
		for r := 0; r < b.replicas; r++ {
			st, err := topk.LoadSharded(topk.ShardedConfig{Config: testClusterCfg(), Shards: 4}, bandPts)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(serve.New(st, serve.Options{Lo: b.lo, Hi: b.hi}))
			replicas = append(replicas, srv)
			f.addrs = append(f.addrs, srv.URL)
		}
		f.servers = append(f.servers, replicas)
	}
	t.Cleanup(f.close)
	return f
}

// uniformResults draws n contract-valid points.
func uniformResults(seed int64, n int, domain float64) []topk.Result {
	return workload.NewGen(seed).Uniform(n, domain)
}

// checkClusterQueries compares TopK per query AND one QueryBatch over
// all queries against the oracle, byte-identically.
func checkClusterQueries(t *testing.T, cl *topk.Cluster, oracle *topk.Index, qs []topk.Query) {
	t.Helper()
	for _, q := range qs {
		got := cl.TopK(q.X1, q.X2, q.K)
		want := oracle.TopK(q.X1, q.X2, q.K)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TopK(%v, %v, %d): cluster diverged\ngot  %v\nwant %v", q.X1, q.X2, q.K, got, want)
		}
		if gc, wc := cl.Count(q.X1, q.X2), oracle.Count(q.X1, q.X2); gc != wc {
			t.Fatalf("Count(%v, %v) = %d, oracle %d", q.X1, q.X2, gc, wc)
		}
	}
	gotB := cl.QueryBatch(qs)
	wantB := oracle.QueryBatch(qs)
	if !reflect.DeepEqual(gotB, wantB) {
		t.Fatalf("QueryBatch diverged from oracle")
	}
}

// TestClusterMatchesIndex is the acceptance differential: a 3-node
// cluster (one member per score band) answers every read byte-
// identically to one sequential Index — including full-range queries
// whose answers interleave all three bands (every query whose k
// exceeds one band's contribution straddles node boundaries, because
// bands partition by SCORE and descending-score answers alternate
// across them) — and updates through the gateway keep it that way.
func TestClusterMatchesIndex(t *testing.T) {
	pts := uniformResults(91, 3000, 1e6)
	// Cut the score domain (Uniform scores are ~U[0,1)-scaled; derive
	// cuts from the data to get three equal thirds).
	cuts := scoreQuantiles(pts, 3)
	fleet := bootFleet(t, pts, []bandSpec{
		{math.Inf(-1), cuts[0], 1},
		{cuts[0], cuts[1], 1},
		{cuts[1], math.Inf(1), 1},
	})
	cl, err := topk.NewCluster(topk.ClusterConfig{Members: fleet.addrs, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	oracle, err := topk.Load(testClusterCfg(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Len() != oracle.Len() {
		t.Fatalf("Len = %d, oracle %d", cl.Len(), oracle.Len())
	}
	if g := cl.Groups(); g != 3 {
		t.Fatalf("Groups = %d, want 3", g)
	}

	gen := workload.NewGen(92)
	qs := gen.Queries(64, 1e6, 0.001, 0.05, 48)
	// Full-range and oversized-k queries interleave every band's
	// answers through the shared merge.
	qs = append(qs,
		topk.Query{X1: math.Inf(-1), X2: math.Inf(1), K: 100},
		topk.Query{X1: 0, X2: 1e6, K: len(pts) + 500},
		topk.Query{X1: 2e5, X2: 7e5, K: 1})
	checkClusterQueries(t, cl, oracle, qs)

	// Updates through the gateway: inserts and deletes mirror onto the
	// oracle; answers must stay identical.
	rng := rand.New(rand.NewSource(93))
	for i := 0; i < 300; i++ {
		if i%3 == 0 { // delete an existing point
			j := rng.Intn(len(pts))
			p := pts[j]
			found := cl.Delete(p.X, p.Score)
			wantFound := oracle.Delete(p.X, p.Score)
			if found != wantFound {
				t.Fatalf("Delete(%v, %v) = %v, oracle %v", p.X, p.Score, found, wantFound)
			}
			continue
		}
		p := topk.Result{X: 2e6 + float64(i), Score: 2 + float64(i)/1000}
		if err := cl.Insert(p.X, p.Score); err != nil {
			t.Fatalf("Insert(%v, %v): %v", p.X, p.Score, err)
		}
		if err := oracle.Insert(p.X, p.Score); err != nil {
			t.Fatalf("oracle Insert: %v", err)
		}
	}
	if cl.Len() != oracle.Len() {
		t.Fatalf("after churn: Len = %d, oracle %d", cl.Len(), oracle.Len())
	}
	checkClusterQueries(t, cl, oracle, qs)

	// Error parity with the local backends.
	if err := cl.Insert(math.NaN(), 1); !errors.Is(err, topk.ErrInvalidPoint) {
		t.Fatalf("NaN insert: %v, want ErrInvalidPoint", err)
	}
	// A duplicate of a PRELOADED score routes to its owning member,
	// whose local store rejects it authoritatively.
	if err := cl.Insert(-5e6, pts[7].Score); !errors.Is(err, topk.ErrDuplicateScore) {
		t.Fatalf("preloaded duplicate score: %v, want ErrDuplicateScore", err)
	}
	// Duplicates of GATEWAY-written points are rejected at the router,
	// position checked before score like every backend.
	if err := cl.Insert(3e6, 3.5); err != nil {
		t.Fatal(err)
	}
	if err := cl.Insert(3e6, 4.5); !errors.Is(err, topk.ErrDuplicatePosition) {
		t.Fatalf("duplicate position: %v, want ErrDuplicatePosition", err)
	}
	if err := cl.Insert(4e6, 3.5); !errors.Is(err, topk.ErrDuplicateScore) {
		t.Fatalf("duplicate score: %v, want ErrDuplicateScore", err)
	}
	if cl.Delete(999e6, 999) {
		t.Fatal("delete of absent point reported found")
	}
	// Batch outcomes: one applied insert, one duplicate, one absent
	// delete, one applied delete — per-op errors under the contract.
	errs := cl.ApplyBatch([]topk.BatchOp{
		{X: 5e6, Score: 5.5},
		{X: 5e6 + 1, Score: 5.5},
		{Delete: true, X: 123e6, Score: 77},
		{Delete: true, X: 5e6, Score: 5.5},
	})
	if errs[0] != nil || !errors.Is(errs[1], topk.ErrDuplicateScore) || !errors.Is(errs[2], topk.ErrNotFound) || errs[3] != nil {
		t.Fatalf("batch outcomes: %v", errs)
	}
	// Non-finite deletes answer ErrNotFound at the gateway (JSON could
	// not even carry them) without poisoning the valid ops sharing the
	// batch — exactly the Index/Sharded contract.
	errs = cl.ApplyBatch([]topk.BatchOp{
		{Delete: true, X: 2, Score: math.NaN()},
		{X: 6e6, Score: 6.5},
		{Delete: true, X: math.Inf(1), Score: 1},
	})
	if !errors.Is(errs[0], topk.ErrNotFound) || errs[1] != nil || !errors.Is(errs[2], topk.ErrNotFound) {
		t.Fatalf("non-finite delete batch outcomes: %v", errs)
	}
	if cl.Delete(3, math.Inf(-1)) {
		t.Fatal("delete of a non-finite point reported found")
	}
}

// scoreQuantiles returns cuts splitting pts into parts equal score
// bands.
func scoreQuantiles(pts []topk.Result, parts int) []float64 {
	scores := make([]float64, len(pts))
	for i, p := range pts {
		scores[i] = p.Score
	}
	sortFloats(scores)
	cuts := make([]float64, 0, parts-1)
	for i := 1; i < parts; i++ {
		cuts = append(cuts, scores[i*len(scores)/parts])
	}
	return cuts
}

func sortFloats(fs []float64) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j] < fs[j-1]; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// TestClusterNodeDownReadFailover: a band with two replicas keeps
// answering byte-identically after one replica dies mid-run — reads
// fail over to the alternate, the health checker ejects the dead node,
// and writes to the degraded band fail fast with ErrNodeDown while the
// healthy band keeps accepting.
func TestClusterNodeDownReadFailover(t *testing.T) {
	pts := uniformResults(95, 2000, 1e6)
	cuts := scoreQuantiles(pts, 2)
	fleet := bootFleet(t, pts, []bandSpec{
		{math.Inf(-1), cuts[0], 2}, // replicated band
		{cuts[0], math.Inf(1), 1},
	})
	cl, err := topk.NewCluster(topk.ClusterConfig{
		Members:        fleet.addrs,
		Timeout:        2 * time.Second,
		HealthInterval: 20 * time.Millisecond,
		EjectAfter:     2,
		EjectFor:       time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	oracle, err := topk.Load(testClusterCfg(), pts)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGen(96)
	qs := gen.Queries(32, 1e6, 0.001, 0.05, 32)
	qs = append(qs, topk.Query{X1: math.Inf(-1), X2: math.Inf(1), K: 200})
	checkClusterQueries(t, cl, oracle, qs)

	// Kill one replica of band 0 mid-run. Round-robin read preference
	// will keep landing on it, so correctness now depends on the
	// retry-on-alternate path.
	fleet.servers[0][0].Close()
	checkClusterQueries(t, cl, oracle, qs)
	if cl.ReadFailovers() == 0 {
		t.Fatal("no read failovers recorded despite a dead preferred replica")
	}
	// The background prober must eject the dead node on its own.
	deadline := time.Now().Add(10 * time.Second)
	for cl.Ejected() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if cl.Ejected() != 1 {
		t.Fatalf("Ejected = %d, want 1", cl.Ejected())
	}
	// With the node ejected, reads skip it (no growth in failovers
	// needed) and stay exact.
	checkClusterQueries(t, cl, oracle, qs)

	// Writes: the degraded band refuses (consistency-first — writing
	// around the dead replica would diverge the group); the healthy
	// band accepts.
	lowScore := cuts[0] - 1 // routes to band 0
	if err := cl.Insert(9e6, lowScore); !errors.Is(err, topk.ErrNodeDown) {
		t.Fatalf("write to degraded band: %v, want ErrNodeDown", err)
	}
	highScore := cuts[0] + 1 // routes to band 1
	if err := cl.Insert(9e6, highScore); err != nil {
		t.Fatalf("write to healthy band: %v", err)
	}
	if err := oracle.Insert(9e6, highScore); err != nil {
		t.Fatal(err)
	}
	checkClusterQueries(t, cl, oracle, qs)
}

// TestClusterWholeBandDown: when every replica of a band is
// unreachable, reads degrade to partial answers (the other bands'
// points, still exactly merged) instead of failing, and writes to the
// dark band report ErrNodeDown.
func TestClusterWholeBandDown(t *testing.T) {
	pts := uniformResults(97, 1000, 1e6)
	cuts := scoreQuantiles(pts, 2)
	fleet := bootFleet(t, pts, []bandSpec{
		{math.Inf(-1), cuts[0], 1},
		{cuts[0], math.Inf(1), 1},
	})
	cl, err := topk.NewCluster(topk.ClusterConfig{
		Members: fleet.addrs,
		Timeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Oracle over the surviving band only: the dark band contributes
	// nothing, the rest must still come back exactly.
	var highPts []topk.Result
	for _, p := range pts {
		if p.Score >= cuts[0] {
			highPts = append(highPts, p)
		}
	}
	survivors, err := topk.Load(testClusterCfg(), highPts)
	if err != nil {
		t.Fatal(err)
	}
	fleet.servers[0][0].Close()
	// k=100 is answered by the live top band alone; k=len(pts) walks
	// down into the dark band and gets nothing there.
	for _, k := range []int{100, len(pts)} {
		got := cl.TopK(math.Inf(-1), math.Inf(1), k)
		want := survivors.TopK(math.Inf(-1), math.Inf(1), k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: partial read mismatch\ngot  %v\nwant %v", k, got, want)
		}
	}
	if err := cl.Insert(42e6, cuts[0]-2); !errors.Is(err, topk.ErrNodeDown) {
		t.Fatalf("write to dark band: %v, want ErrNodeDown", err)
	}
	if cl.Delete(42e6, cuts[0]-2) {
		t.Fatal("delete routed to a dark band must report not found")
	}
	if err := cl.Insert(42e6, cuts[0]+2); err != nil {
		t.Fatalf("write to live band: %v", err)
	}
}

// memberCall is one member request a gateway sent: the member's base
// URL, the path, and the k of every query it carried (one for
// /v1/topk, one per query op for /v1/batch).
type memberCall struct {
	member, path string
	ks           []int
}

// callLog is a RoundTripper recording every member request the gateway
// sends.
type callLog struct {
	base  *http.Transport
	mu    sync.Mutex
	calls []memberCall
}

func (l *callLog) RoundTrip(r *http.Request) (*http.Response, error) {
	c := memberCall{member: r.URL.Scheme + "://" + r.URL.Host, path: r.URL.Path}
	switch r.URL.Path {
	case "/v1/topk":
		k, err := strconv.Atoi(r.URL.Query().Get("k"))
		if err != nil {
			return nil, err
		}
		c.ks = []int{k}
	case "/v1/batch":
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return nil, err
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req struct{ Ops []struct{ K int } }
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		for _, op := range req.Ops {
			c.ks = append(c.ks, op.K)
		}
	}
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
	return l.base.RoundTrip(r)
}

// take returns the requests recorded since the last take.
func (l *callLog) take() []memberCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.calls
	l.calls = nil
	return out
}

// TestClusterScoreOrderedWalk pins the read path's request pattern, not
// just its answers: a read asks the top score band first, asks each
// lower band only for the points still missing, and stops as soon as
// it holds k — so a band the k-th score never reaches receives no
// request. The fleet is lopsided on purpose: an empty top band, then
// bands holding 10 %, 30 % and 60 % of the points.
func TestClusterScoreOrderedWalk(t *testing.T) {
	pts := uniformResults(103, 2000, 1e6) // scores uniform in [0, 1)
	bands := []bandSpec{
		{math.Inf(-1), 0.6, 1},
		{0.6, 0.9, 1},
		{0.9, 2, 1},
		{2, math.Inf(1), 1}, // holds no point
	}
	fleet := bootFleet(t, pts, bands)
	log := &callLog{base: &http.Transport{}}
	defer log.base.CloseIdleConnections()
	cl, err := topk.NewCluster(topk.ClusterConfig{Members: fleet.addrs, Timeout: 10 * time.Second, Transport: log})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	oracle, err := topk.Load(testClusterCfg(), pts)
	if err != nil {
		t.Fatal(err)
	}
	log.take() // band discovery

	// walk is the expected request sequence of one read: from the top
	// band down, each band asked for k minus what the bands above it
	// held in range.
	walk := func(q topk.Query) (members []string, ks []int) {
		got := 0
		for b := len(bands) - 1; b >= 0 && got < q.K; b-- {
			members = append(members, fleet.addrs[b])
			ks = append(ks, q.K-got)
			for _, p := range pts {
				if bands[b].lo <= p.Score && p.Score < bands[b].hi && q.X1 <= p.X && p.X <= q.X2 && got < q.K {
					got++
				}
			}
		}
		return members, ks
	}

	gen := workload.NewGen(104)
	qs := gen.Queries(48, 1e6, 0.001, 0.05, 48)
	qs = append(qs,
		topk.Query{X1: math.Inf(-1), X2: math.Inf(1), K: 1},   // the top non-empty band alone
		topk.Query{X1: math.Inf(-1), X2: math.Inf(1), K: 500}, // two bands
		topk.Query{X1: 4e5, X2: 6e5, K: 40},                   // about what the top non-empty band holds there
		topk.Query{X1: 0, X2: 1e6, K: len(pts) + 7},           // every band
		topk.Query{X1: 2e6, X2: 3e6, K: 5})                    // an empty range walks every band too
	bandsBefore := cl.ReadBands().Snapshot()
	asked := 0
	for _, q := range qs {
		got := cl.TopK(q.X1, q.X2, q.K)
		if want := oracle.TopK(q.X1, q.X2, q.K); !reflect.DeepEqual(got, want) {
			t.Fatalf("TopK(%v, %v, %d) diverged\ngot  %v\nwant %v", q.X1, q.X2, q.K, got, want)
		}
		wantMembers, wantKs := walk(q)
		calls := log.take()
		var members []string
		var ks []int
		for _, c := range calls {
			if c.path != "/v1/topk" {
				t.Fatalf("TopK sent %s to %s", c.path, c.member)
			}
			members = append(members, c.member)
			ks = append(ks, c.ks...)
		}
		if !reflect.DeepEqual(members, wantMembers) || !reflect.DeepEqual(ks, wantKs) {
			t.Fatalf("TopK(%v, %v, %d) asked %v for k=%v, want %v for k=%v", q.X1, q.X2, q.K, members, ks, wantMembers, wantKs)
		}
		asked += len(wantMembers)
	}

	// QueryBatch walks the same way: each band gets one request holding
	// the queries still short of their k, in batch order, each asking
	// for what it still misses.
	if got, want := cl.QueryBatch(qs), oracle.QueryBatch(qs); !reflect.DeepEqual(got, want) {
		t.Fatal("QueryBatch diverged from oracle")
	}
	wantKs := map[string][]int{}
	for _, q := range qs {
		members, ks := walk(q)
		for i, m := range members {
			wantKs[m] = append(wantKs[m], ks[i])
		}
		asked += len(members)
	}
	calls := log.take()
	if len(calls) != len(bands) {
		t.Fatalf("QueryBatch sent %d requests, want one per band reached (%d): %+v", len(calls), len(bands), calls)
	}
	for i, c := range calls {
		if want := fleet.addrs[len(bands)-1-i]; c.member != want || c.path != "/v1/batch" {
			t.Fatalf("QueryBatch request %d went to %s %s, want %s /v1/batch", i, c.member, c.path, want)
		}
		if !reflect.DeepEqual(c.ks, wantKs[c.member]) {
			t.Fatalf("QueryBatch asked %s for k=%v, want %v", c.member, c.ks, wantKs[c.member])
		}
	}

	// Every read observed how many bands it asked.
	after := cl.ReadBands().Snapshot()
	if reads, sum := after.Count-bandsBefore.Count, after.Sum-bandsBefore.Sum; reads != uint64(2*len(qs)) || sum != float64(asked) {
		t.Fatalf("ReadBands recorded %d reads asking %v bands, want %d reads asking %d", reads, sum, 2*len(qs), asked)
	}

	// Count still asks every band: any band may hold points in range.
	if got, want := cl.Count(0, 1e6), oracle.Count(0, 1e6); got != want {
		t.Fatalf("Count = %d, oracle %d", got, want)
	}
	if calls := log.take(); len(calls) != len(bands) {
		t.Fatalf("Count sent %d requests, want %d", len(calls), len(bands))
	}

	// A dark band is stepped over: the walk takes the rest from the
	// bands below it, exactly as from a fleet without the band's points.
	fleet.servers[2][0].Close()
	var rest []topk.Result
	for _, p := range pts {
		if p.Score < 0.9 {
			rest = append(rest, p)
		}
	}
	survivors, err := topk.Load(testClusterCfg(), rest)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 300, len(pts)} {
		if got, want := cl.TopK(0, 1e6, k), survivors.TopK(0, 1e6, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d past a dark band: got %d points, want %d", k, len(got), len(want))
		}
	}
}

// tearTopK is a RoundTripper in the style of callLog that keeps one
// member's 200 status but rewrites every /v1/topk response it sends
// with tear, counting the bodies it tore.
type tearTopK struct {
	base   *http.Transport
	member string // the member's base URL
	tear   func(h http.Header, body []byte) []byte
	torn   atomic.Int64
}

func (tt *tearTopK) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := tt.base.RoundTrip(r)
	if err != nil || resp.StatusCode != http.StatusOK || r.URL.Path != "/v1/topk" || r.URL.Scheme+"://"+r.URL.Host != tt.member {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	body = tt.tear(resp.Header, body)
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	tt.torn.Add(1)
	return resp, nil
}

// tornBodies are the ways a 200 /v1/topk answer arrives broken. Each
// applies to a points body (a little-endian uint64 count, then 16
// bytes per point) holding at least two points.
var tornBodies = []struct {
	name string
	tear func(h http.Header, body []byte) []byte
}{
	{"cut inside the count", func(_ http.Header, b []byte) []byte { return b[:4] }},
	{"cut inside a number", func(_ http.Header, b []byte) []byte { return b[:8+16+12] }},
	{"cut at a point boundary", func(_ http.Header, b []byte) []byte { return b[:8+16] }},
	{"count larger than the body", func(_ http.Header, b []byte) []byte {
		binary.LittleEndian.PutUint64(b, math.MaxUint64)
		return b
	}},
	{"empty body", func(http.Header, []byte) []byte { return nil }},
	{"trailing garbage", func(_ http.Header, b []byte) []byte { return append(b, "garbage"...) }},
	// The right points, but not in the media type the gateway asked
	// for: labelled as JSON, and as JSON.
	{"points labelled as JSON", func(h http.Header, b []byte) []byte {
		h.Set("Content-Type", "application/json")
		return b
	}},
	{"a JSON answer", func(h http.Header, b []byte) []byte {
		pts, err := wire.ParsePoints(b, nil)
		if err != nil {
			panic(err)
		}
		h.Set("Content-Type", "application/json")
		j, err := json.Marshal(wire.TopK{Results: pts})
		if err != nil {
			panic(err)
		}
		return j
	}},
}

// TestClusterTornTopKBody makes a member's broken 200 answer a tested
// event: the gateway treats it as a failed node. With a healthy second
// replica in the band, the read fails over and the answer is exact.
// With the band's only replica torn, the band contributes nothing, as a
// dark band does in TestClusterWholeBandDown, so no prefix of a torn
// body reaches an answer.
func TestClusterTornTopKBody(t *testing.T) {
	pts := uniformResults(107, 1000, 1e6)
	cuts := scoreQuantiles(pts, 2)
	replicated := bootFleet(t, pts, []bandSpec{{math.Inf(-1), cuts[0], 1}, {cuts[0], math.Inf(1), 2}})
	single := bootFleet(t, pts, []bandSpec{{math.Inf(-1), cuts[0], 1}, {cuts[0], math.Inf(1), 1}})
	oracle, err := topk.Load(testClusterCfg(), pts)
	if err != nil {
		t.Fatal(err)
	}
	// Every read asks the top band, whose first replica is torn; with it
	// dark, the bottom band alone answers.
	var low []topk.Result
	for _, p := range pts {
		if p.Score < cuts[0] {
			low = append(low, p)
		}
	}
	survivors, err := topk.Load(testClusterCfg(), low)
	if err != nil {
		t.Fatal(err)
	}
	gateway := func(t *testing.T, fleet *testFleet, tear func(http.Header, []byte) []byte) (*topk.Cluster, *tearTopK) {
		tt := &tearTopK{base: &http.Transport{}, member: fleet.servers[1][0].URL, tear: tear}
		t.Cleanup(tt.base.CloseIdleConnections)
		cl, err := topk.NewCluster(topk.ClusterConfig{Members: fleet.addrs, Timeout: 10 * time.Second, Transport: tt})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl, tt
	}
	ks := []int{5, 100, len(pts)}
	for _, tb := range tornBodies {
		t.Run(tb.name, func(t *testing.T) {
			cl, tt := gateway(t, replicated, tb.tear)
			for _, k := range ks {
				got, want := cl.TopK(math.Inf(-1), math.Inf(1), k), oracle.TopK(math.Inf(-1), math.Inf(1), k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("replicated band, k=%d: got %d points, want the oracle's %d", k, len(got), len(want))
				}
			}
			if tt.torn.Load() == 0 || cl.ReadFailovers() == 0 {
				t.Fatalf("replicated band: %d bodies torn, %d read failovers; want both above 0", tt.torn.Load(), cl.ReadFailovers())
			}

			cl, tt = gateway(t, single, tb.tear)
			for _, k := range ks {
				got, want := cl.TopK(math.Inf(-1), math.Inf(1), k), survivors.TopK(math.Inf(-1), math.Inf(1), k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("single replica, k=%d: got %d points, want the survivors' %d", k, len(got), len(want))
				}
			}
			if n := tt.torn.Load(); n != int64(len(ks)) {
				t.Fatalf("single replica: %d bodies torn, want one per read (%d)", n, len(ks))
			}
		})
	}
}

// TestClusterConfigValidation: the gateway refuses layouts it cannot
// serve correctly.
func TestClusterConfigValidation(t *testing.T) {
	if _, err := topk.NewCluster(topk.ClusterConfig{}); !errors.Is(err, topk.ErrConfig) {
		t.Fatalf("no members: %v, want ErrConfig", err)
	}
	// Unreachable member: construction must fail with ErrNodeDown, not
	// guess a layout.
	if _, err := topk.NewCluster(topk.ClusterConfig{
		Members: []string{"127.0.0.1:1"},
		Timeout: 500 * time.Millisecond,
	}); !errors.Is(err, topk.ErrNodeDown) {
		t.Fatalf("unreachable member: %v, want ErrNodeDown", err)
	}
	// A gap in the score tiling is a config error.
	pts := uniformResults(98, 200, 1e6)
	var loPts, hiPts []topk.Result
	for _, p := range pts {
		if p.Score < 0.3 {
			loPts = append(loPts, p)
		} else if p.Score >= 0.6 {
			hiPts = append(hiPts, p)
		}
	}
	mk := func(ps []topk.Result, lo, hi float64) *httptest.Server {
		st, err := topk.LoadSharded(topk.ShardedConfig{Config: testClusterCfg(), Shards: 2}, ps)
		if err != nil {
			t.Fatal(err)
		}
		return httptest.NewServer(serve.New(st, serve.Options{Lo: lo, Hi: hi}))
	}
	a := mk(loPts, math.Inf(-1), 0.3)
	b := mk(hiPts, 0.6, math.Inf(1))
	defer a.Close()
	defer b.Close()
	if _, err := topk.NewCluster(topk.ClusterConfig{
		Members: []string{a.URL, b.URL},
		Timeout: 5 * time.Second,
	}); err == nil {
		t.Fatal("tiling gap accepted")
	}
	// Replicas that disagree on their live count are refused too.
	c := mk(loPts[:len(loPts)-1], math.Inf(-1), 0.3)
	d := mk(hiPts, 0.3, math.Inf(1))
	e := mk(hiPts[:len(hiPts)/2], 0.3, math.Inf(1))
	defer c.Close()
	defer d.Close()
	defer e.Close()
	if _, err := topk.NewCluster(topk.ClusterConfig{
		Members: []string{c.URL, d.URL, e.URL},
		Timeout: 5 * time.Second,
	}); err == nil {
		t.Fatal("replica count mismatch accepted")
	}
}

// TestClusterConcurrentChurn is the randomized concurrency test: many
// goroutines insert, query and delete through one gateway (disjoint
// identity bands per worker, scores spread across every member) while
// readers fan out concurrently; after quiescing, the cluster must
// answer byte-identically to an Index holding exactly the surviving
// points. Run under -race in CI.
func TestClusterConcurrentChurn(t *testing.T) {
	pts := uniformResults(99, 600, 1e6)
	cuts := scoreQuantiles(pts, 3)
	fleet := bootFleet(t, pts, []bandSpec{
		{math.Inf(-1), cuts[0], 1},
		{cuts[0], cuts[1], 1},
		{cuts[1], math.Inf(1), 1},
	})
	cl, err := topk.NewCluster(topk.ClusterConfig{
		Members:        fleet.addrs,
		Timeout:        10 * time.Second,
		HealthInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const workers = 4
	const rounds = 40
	live := make([]map[topk.Result]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		live[w] = make(map[topk.Result]bool)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			var mine []topk.Result
			for r := 0; r < rounds; r++ {
				// Insert a small batch: identities disjoint per worker
				// (position ≡ w mod workers scaled; scores likewise),
				// spread across the full score domain so every member
				// sees traffic.
				ops := make([]topk.BatchOp, 0, 8)
				var fresh []topk.Result
				for j := 0; j < 4; j++ {
					id := r*4 + j
					p := topk.Result{
						X:     5e6 + float64(id*workers+w),
						Score: 10 + float64(id*workers+w)/100 + rng.Float64()/1e6,
					}
					ops = append(ops, topk.BatchOp{X: p.X, Score: p.Score})
					fresh = append(fresh, p)
				}
				for i, err := range cl.ApplyBatch(ops) {
					if err != nil {
						t.Errorf("worker %d insert %v: %v", w, ops[i], err)
						return
					}
				}
				mine = append(mine, fresh...)
				for _, p := range fresh {
					live[w][p] = true
				}
				// Concurrent reads: just must not race or error.
				cl.TopK(0, 1e7, 20)
				cl.QueryBatch([]topk.Query{{X1: 4e6, X2: 6e6, K: 10}, {X1: 0, X2: 1e6, K: 5}})
				// Delete one of our own live points now and then.
				if len(mine) > 0 && rng.Intn(2) == 0 {
					j := rng.Intn(len(mine))
					p := mine[j]
					if live[w][p] {
						if !cl.Delete(p.X, p.Score) {
							t.Errorf("worker %d: delete of own live point %v not found", w, p)
							return
						}
						live[w][p] = false
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesced: rebuild the oracle from the preload plus every
	// surviving gateway write, and demand exact agreement.
	all := append([]topk.Result(nil), pts...)
	for w := 0; w < workers; w++ {
		for p, ok := range live[w] {
			if ok {
				all = append(all, p)
			}
		}
	}
	oracle, err := topk.Load(testClusterCfg(), all)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Len() != oracle.Len() {
		t.Fatalf("Len = %d, oracle %d", cl.Len(), oracle.Len())
	}
	gen := workload.NewGen(100)
	qs := gen.Queries(48, 1e6, 0.001, 0.05, 32)
	qs = append(qs,
		topk.Query{X1: math.Inf(-1), X2: math.Inf(1), K: len(all)},
		topk.Query{X1: 4e6, X2: 6e6, K: 500})
	checkClusterQueries(t, cl, oracle, qs)
	if ej := cl.Ejected(); ej != 0 {
		t.Fatalf("healthy fleet reports %d ejected nodes", ej)
	}
	_ = fmt.Sprintf("%s", cl) // String must not race either
}

// logSink is a goroutine-safe log buffer (the health prober logs from
// its own goroutine).
type logSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logSink) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logSink) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestClusterEjectionRecoveryEpisodes: the ejections/recoveries
// counters track episodes, not probe failures — one bump per
// healthy→ejected transition (window extensions and post-expiry
// re-ejections during the same outage do not count), one per
// ejected→answering transition — and each transition emits a
// structured log event naming the node.
func TestClusterEjectionRecoveryEpisodes(t *testing.T) {
	pts := uniformResults(101, 500, 1e6)
	st, err := topk.LoadSharded(topk.ShardedConfig{Config: testClusterCfg(), Shards: 2}, pts)
	if err != nil {
		t.Fatal(err)
	}
	var down atomic.Bool
	inner := serve.New(st, serve.Options{Lo: math.Inf(-1), Hi: math.Inf(1)})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "induced outage", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	var sink logSink
	cl, err := topk.NewCluster(topk.ClusterConfig{
		Members:        []string{srv.URL},
		Timeout:        time.Second,
		HealthInterval: 5 * time.Millisecond,
		EjectAfter:     2,
		EjectFor:       200 * time.Millisecond,
		Logger:         slog.New(slog.NewTextHandler(&sink, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (ejections=%d recoveries=%d)",
					desc, cl.Ejections(), cl.Recoveries())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	if cl.Ejections() != 0 || cl.Recoveries() != 0 {
		t.Fatalf("fresh cluster: ejections=%d recoveries=%d, want 0/0", cl.Ejections(), cl.Recoveries())
	}

	// Episode 1: outage → ejection.
	down.Store(true)
	waitFor("first ejection", func() bool { return cl.Ejections() == 1 })
	if cl.Ejected() != 1 {
		t.Errorf("Ejected = %d, want 1 during the outage", cl.Ejected())
	}
	// The outage outlives the ejection window; continued failures extend
	// or renew the window but never open a new episode.
	time.Sleep(500 * time.Millisecond)
	if got := cl.Ejections(); got != 1 {
		t.Fatalf("ejections grew to %d during one continuous outage, want 1", got)
	}

	// Node answers again: the episode closes.
	down.Store(false)
	waitFor("recovery", func() bool { return cl.Recoveries() == 1 })
	waitFor("ejection cleared", func() bool { return cl.Ejected() == 0 })

	// Episode 2: a second outage is a second ejection.
	down.Store(true)
	waitFor("second ejection", func() bool { return cl.Ejections() == 2 })

	log := sink.String()
	for _, want := range []string{"member ejected", "member recovered", "consecutive_failures", "eject_deadline", srv.URL} {
		if !strings.Contains(log, want) {
			t.Errorf("structured log missing %q:\n%s", want, log)
		}
	}
}

// TestClusterCrossBandDuplicatePosition: one position with scores in
// two different bands routes to two different members, and neither
// member can see the other's point. Only the gateway's position
// registry catches the duplicate, so the Cluster rejects the second
// insert exactly like an Index does.
func TestClusterCrossBandDuplicatePosition(t *testing.T) {
	fleet := bootFleet(t, nil, []bandSpec{{math.Inf(-1), 0.5, 1}, {0.5, math.Inf(1), 1}})
	cl, err := topk.NewCluster(topk.ClusterConfig{Members: fleet.addrs, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	oracle, err := topk.New(testClusterCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []topk.Store{cl, oracle} {
		if err := st.Insert(42, 0.25); err != nil {
			t.Fatalf("%T: first insert: %v", st, err)
		}
		if err := st.Insert(42, 0.75); !errors.Is(err, topk.ErrDuplicatePosition) {
			t.Fatalf("%T: same position in the other band: %v, want ErrDuplicatePosition", st, err)
		}
		if n := st.Len(); n != 1 {
			t.Fatalf("%T: Len = %d after the rejected insert, want 1", st, n)
		}
	}
	if got, want := cl.TopK(0, 100, 5), oracle.TopK(0, 100, 5); !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK = %v, oracle %v", got, want)
	}
}
