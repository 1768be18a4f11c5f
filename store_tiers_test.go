package topk_test

// Tests of the v1 Store contract on every tier: the sentinel-error
// paths of Insert/ApplyBatch, the differential guarantee QueryBatch ≡
// k sequential TopK calls (byte-identical across tiers, boundary-
// straddling batches included), and the clamp of an oversized k. They
// live in the external test package because the cluster tiers need
// member processes, which internal/serve mounts, and package topk
// cannot import internal/serve.

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	topk "repro"
	"repro/internal/workload"
)

// storeBackends builds one instance of every Store tier over the same
// point set: an Index, a Sharded, a two-band Cluster over member
// processes, a Batched over a second Sharded, a Batched over that
// Cluster, and the WithContext views of both cluster-backed stores,
// bound to a live context. The cluster tiers share one fleet and one
// router, so a test leaves each store holding what it found.
func storeBackends(t *testing.T, pts []topk.Result) map[string]topk.Store {
	t.Helper()
	cfg := topk.Config{ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 2048}
	shardedCfg := topk.ShardedConfig{Config: cfg, Shards: 4, MinSplit: 256}
	index, err := topk.Load(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	load := func() *topk.Sharded {
		s, err := topk.LoadSharded(shardedCfg, pts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cut := scoreQuantiles(pts, 2)[0]
	fleet := bootFleet(t, pts, []bandSpec{{math.Inf(-1), cut, 1}, {cut, math.Inf(1), 1}})
	cl, err := topk.NewCluster(topk.ClusterConfig{Members: fleet.addrs, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	batched := func(inner topk.Store) *topk.Batched {
		bt, err := topk.NewBatched(inner, topk.BatchedConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { bt.Close() })
		return bt
	}
	batchedCluster := batched(cl)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return map[string]topk.Store{
		"index":               index,
		"sharded":             load(),
		"cluster":             cl,
		"batched-sharded":     batched(load()),
		"batched-cluster":     batchedCluster,
		"cluster-ctx":         cl.WithContext(ctx),
		"batched-cluster-ctx": batchedCluster.WithContext(ctx),
	}
}

// TestStoreErrorPaths: every sentinel error, on every tier, and the
// guarantee that a rejected op mutates nothing.
func TestStoreErrorPaths(t *testing.T) {
	gen := workload.NewGen(61)
	pts := gen.Uniform(2000, 1e6)
	for name, st := range storeBackends(t, pts) {
		t.Run(name, func(t *testing.T) {
			n := st.Len()
			live := st.TopK(math.Inf(-1), math.Inf(1), 1)[0]

			for _, c := range []struct {
				name       string
				pos, score float64
				want       error
			}{
				{"nan position", math.NaN(), 5e9, topk.ErrInvalidPoint},
				{"inf position", math.Inf(1), 5e9, topk.ErrInvalidPoint},
				{"nan score", 5e9, math.NaN(), topk.ErrInvalidPoint},
				{"-inf score", 5e9, math.Inf(-1), topk.ErrInvalidPoint},
				{"occupied position", live.X, 5e9, topk.ErrDuplicatePosition},
				{"occupied position, same score", live.X, live.Score, topk.ErrDuplicatePosition},
				{"live score elsewhere", 5e9, live.Score, topk.ErrDuplicateScore},
			} {
				if err := st.Insert(c.pos, c.score); !errors.Is(err, c.want) {
					t.Errorf("%s: Insert = %v, want %v", c.name, err, c.want)
				}
			}
			if st.Len() != n {
				t.Fatalf("rejected inserts changed Len: %d -> %d", n, st.Len())
			}

			// The same sentinels flow through ApplyBatch, plus
			// ErrNotFound for absent deletes; valid ops in the same
			// batch still apply.
			res := st.ApplyBatch([]topk.BatchOp{
				{X: 5e9, Score: math.NaN()},
				{X: live.X, Score: 6e9},
				{X: 6e9, Score: live.Score},
				{Delete: true, X: -5e9, Score: 1},
				{Delete: true, X: math.NaN(), Score: 1}, // non-finite delete: not found, same as Index
				{X: 7e9, Score: 7e9},
				{Delete: true, X: 7e9, Score: 7e9},
			})
			want := []error{topk.ErrInvalidPoint, topk.ErrDuplicatePosition, topk.ErrDuplicateScore, topk.ErrNotFound, topk.ErrNotFound, nil, nil}
			for i, err := range res {
				if !errors.Is(err, want[i]) {
					t.Errorf("batch op %d: %v, want %v", i, err, want[i])
				}
			}
			if st.Len() != n {
				t.Fatalf("batch left Len %d, want %d", st.Len(), n)
			}

			// After every rejection the store still serves correctly.
			if got := st.TopK(math.Inf(-1), math.Inf(1), 1)[0]; got != live {
				t.Fatalf("top after rejections = %v, want %v", got, live)
			}
		})
	}
}

// TestQueryBatchDifferential: QueryBatch must equal k sequential TopK
// calls byte-for-byte on every tier, including batches whose queries
// straddle shard boundaries and degenerate queries.
func TestQueryBatchDifferential(t *testing.T) {
	gen := workload.NewGen(63)
	pts := gen.Clustered(5000, 4, 1e6)
	backends := storeBackends(t, pts)

	qs := workloadQueries(gen, backends["sharded"].(*topk.Sharded))
	for name, st := range backends {
		t.Run(name, func(t *testing.T) {
			got := st.QueryBatch(qs)
			if len(got) != len(qs) {
				t.Fatalf("got %d answers for %d queries", len(got), len(qs))
			}
			for i, q := range qs {
				want := st.TopK(q.X1, q.X2, q.K)
				if !reflect.DeepEqual(got[i], want) {
					t.Fatalf("query %d (%+v):\n got %v\nwant %v", i, q, got[i], want)
				}
			}
		})
	}

	// And across tiers: batched answers agree with the Index's.
	want := backends["index"].QueryBatch(qs)
	for name, st := range backends {
		if !reflect.DeepEqual(st.QueryBatch(qs), want) {
			t.Fatalf("%s: QueryBatch diverged from index", name)
		}
	}

	// Empty and nil batches.
	for name, st := range backends {
		if got := st.QueryBatch(nil); got != nil {
			t.Fatalf("%s: QueryBatch(nil) = %v", name, got)
		}
	}
}

// workloadQueries builds a batch mixing random queries, queries
// pinned to every shard boundary, degenerate and NaN queries.
func workloadQueries(gen *workload.Gen, sharded *topk.Sharded) []topk.Query {
	qs := gen.Queries(40, 1e6, 0.001, 0.9, 200)
	for _, cut := range sharded.Boundaries() {
		qs = append(qs,
			topk.Query{X1: cut - 1e4, X2: cut + 1e4, K: 17},
			topk.Query{X1: cut, X2: cut + 1e4, K: 5},
			topk.Query{X1: cut - 1e4, X2: cut, K: 5},
		)
	}
	qs = append(qs,
		topk.Query{X1: math.Inf(-1), X2: math.Inf(1), K: 1 << 20}, // all shards, huge k
		topk.Query{X1: 10, X2: 5, K: 3},                           // inverted
		topk.Query{X1: 0, X2: 1e6, K: 0},                          // k = 0
		topk.Query{X1: math.NaN(), X2: 1e6, K: 3},                 // NaN bound
		topk.Query{X1: 2e6, X2: 3e6, K: 3},                        // empty range
	)
	return qs
}

// TestOversizedKClamped: the library read path must clamp a
// caller-supplied k to the points actually available before anything
// allocates — a direct Store user issuing k = MaxInt must get every
// qualifying point back, not an OOM (topkd clamps over HTTP; the
// library has to hold the same line on its own).
func TestOversizedKClamped(t *testing.T) {
	gen := workload.NewGen(81)
	pts := gen.Uniform(500, 1e6)
	for name, st := range storeBackends(t, pts) {
		for _, k := range []int{501, 1 << 40, math.MaxInt} {
			got := st.TopK(math.Inf(-1), math.Inf(1), k)
			if len(got) != len(pts) {
				t.Fatalf("%s: TopK(k=%d) returned %d points, want %d", name, k, len(got), len(pts))
			}
			for i := 1; i < len(got); i++ {
				if got[i].Score > got[i-1].Score {
					t.Fatalf("%s: TopK(k=%d) out of order", name, k)
				}
			}
			batch := st.QueryBatch([]topk.Query{{X1: math.Inf(-1), X2: math.Inf(1), K: k}})
			if !reflect.DeepEqual(batch[0], got) {
				t.Fatalf("%s: QueryBatch(k=%d) diverged from TopK", name, k)
			}
		}
	}
}
