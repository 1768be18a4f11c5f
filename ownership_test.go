package topk_test

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	topk "repro"
)

// TestCallerOwnsSlices: a slice handed to Load or LoadSharded, and a
// slice returned by TopK or QueryBatch, belongs to the caller. No
// backend keeps a reference to it, so mutating it never changes a
// later answer.
func TestCallerOwnsSlices(t *testing.T) {
	pts := uniformResults(95, 900, 1e6)
	cfg := testClusterCfg()
	oracle, err := topk.Load(cfg, slices.Clone(pts))
	if err != nil {
		t.Fatal(err)
	}
	// The first query spans every band of the cluster below; the second
	// is narrow.
	qs := []topk.Query{{X1: math.Inf(-1), X2: math.Inf(1), K: 700}, {X1: 2e5, X2: 4e5, K: 5}}
	want := oracle.QueryBatch(qs)
	scramble := func(res []topk.Result) {
		for i := range res {
			res[i] = topk.Result{X: -1 - float64(i), Score: -1 - float64(i)}
		}
	}
	check := func(name string, st topk.Store) {
		t.Helper()
		for i, q := range qs {
			res := st.TopK(q.X1, q.X2, q.K)
			if !reflect.DeepEqual(res, want[i]) {
				t.Fatalf("%s: TopK %+v diverged from the oracle", name, q)
			}
			scramble(res)
			if got := st.TopK(q.X1, q.X2, q.K); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s: mutating a returned TopK slice changed the next answer to %+v", name, q)
			}
		}
		for _, res := range st.QueryBatch(qs) {
			scramble(res)
		}
		if got := st.QueryBatch(qs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: mutating returned QueryBatch slices changed the next answer", name)
		}
	}

	in := slices.Clone(pts)
	idx, err := topk.Load(cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	scramble(in)
	check("Index", idx)

	in = slices.Clone(pts)
	sh, err := topk.LoadSharded(topk.ShardedConfig{Config: cfg, Shards: 4}, in)
	if err != nil {
		t.Fatal(err)
	}
	scramble(in)
	check("Sharded", sh)

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
	check("Cluster", cl)
}
