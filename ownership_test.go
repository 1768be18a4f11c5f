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

// TestHeldAnswerSurvivesNextQuery is the other direction of
// TestCallerOwnsSlices: a later query never writes into an answer the
// caller still holds. The engine answers out of per-structure query
// scratch, so this is what pins that every tier copies the answer out
// of it: on an Index in both regimes (§2 for k at or above the
// threshold, the §3.3 reduction below it), and on a Sharded for an
// interval one shard covers and for one every shard covers (the
// router selects its answer from the shards' answers in a pooled
// frame that the next read reuses).
func TestHeldAnswerSurvivesNextQuery(t *testing.T) {
	pts := uniformResults(97, 6000, 1e6)
	cfg := topk.Config{ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 512}
	idx, err := topk.Load(cfg, slices.Clone(pts))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := topk.LoadSharded(topk.ShardedConfig{Config: cfg, Shards: 4}, slices.Clone(pts))
	if err != nil {
		t.Fatal(err)
	}
	cuts := sh.Boundaries()
	if len(cuts) < 2 {
		t.Fatalf("bulk load produced %d cuts; need an interior shard", len(cuts))
	}
	inShard := func(lo, hi float64) (float64, float64) {
		w := cuts[1] - cuts[0]
		return cuts[0] + lo*w, cuts[0] + hi*w
	}
	// Each case asks a, holds the answer, asks b twice, and checks the
	// held answer did not move. The pairs overlap in range, so b's
	// candidates would land in a's slots if a aliased scratch.
	type pair struct {
		name string
		a, b topk.Query
	}
	s1, s2 := inShard(0.1, 0.6)
	s3, s4 := inShard(0.3, 0.9)
	pairs := []pair{
		{"§2", topk.Query{X1: 1e5, X2: 7e5, K: 900}, topk.Query{X1: 2e5, X2: 9e5, K: 1200}},
		{"small k", topk.Query{X1: 1e5, X2: 4e5, K: 40}, topk.Query{X1: 2e5, X2: 6e5, K: 60}},
		{"one shard, §2", topk.Query{X1: s1, X2: s2, K: 900}, topk.Query{X1: s3, X2: s4, K: 900}},
		{"one shard, small k", topk.Query{X1: s1, X2: s2, K: 30}, topk.Query{X1: s3, X2: s4, K: 50}},
		{"every shard, §2", topk.Query{X1: math.Inf(-1), X2: math.Inf(1), K: 1000}, topk.Query{X1: 1e5, X2: 9e5, K: 1500}},
		{"every shard, small k", topk.Query{X1: math.Inf(-1), X2: math.Inf(1), K: 20}, topk.Query{X1: 1e5, X2: 9e5, K: 30}},
	}
	for _, st := range []struct {
		name  string
		store topk.Store
	}{{"Index", idx}, {"Sharded", sh}} {
		for _, p := range pairs {
			held := st.store.TopK(p.a.X1, p.a.X2, p.a.K)
			if len(held) == 0 {
				t.Fatalf("%s %s: the first query found nothing", st.name, p.name)
			}
			want := slices.Clone(held)
			st.store.TopK(p.b.X1, p.b.X2, p.b.K)
			st.store.TopK(p.b.X1, p.b.X2, p.b.K)
			if !reflect.DeepEqual(held, want) {
				t.Fatalf("%s %s: a later query changed a held answer", st.name, p.name)
			}
		}
	}
}
