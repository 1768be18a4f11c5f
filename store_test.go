package topk

// Tests of the v1 Store contract shared by both backends: the
// sentinel-error paths of Insert/ApplyBatch and the differential
// guarantee QueryBatch ≡ k sequential TopK calls (byte-identical,
// boundary-straddling batches included, raced by concurrent writers
// under -race).

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/workload"
)

// storeBackends builds one instance of every Store implementation
// over the same point set.
func storeBackends(t *testing.T, pts []Result) map[string]Store {
	t.Helper()
	return map[string]Store{
		"index":   mustLoad(t, Config{ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 2048}, pts),
		"sharded": mustLoadSharded(t, testShardedConfig(4), pts),
	}
}

// TestStoreErrorPaths: every sentinel error, on every backend, and
// the guarantee that a rejected op mutates nothing.
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
				{"nan position", math.NaN(), 5e9, ErrInvalidPoint},
				{"inf position", math.Inf(1), 5e9, ErrInvalidPoint},
				{"nan score", 5e9, math.NaN(), ErrInvalidPoint},
				{"-inf score", 5e9, math.Inf(-1), ErrInvalidPoint},
				{"occupied position", live.X, 5e9, ErrDuplicatePosition},
				{"occupied position, same score", live.X, live.Score, ErrDuplicatePosition},
				{"live score elsewhere", 5e9, live.Score, ErrDuplicateScore},
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
			res := st.ApplyBatch([]BatchOp{
				{X: 5e9, Score: math.NaN()},
				{X: live.X, Score: 6e9},
				{X: 6e9, Score: live.Score},
				{Delete: true, X: -5e9, Score: 1},
				{Delete: true, X: math.NaN(), Score: 1}, // non-finite delete: not found, same as Index
				{X: 7e9, Score: 7e9},
				{Delete: true, X: 7e9, Score: 7e9},
			})
			want := []error{ErrInvalidPoint, ErrDuplicatePosition, ErrDuplicateScore, ErrNotFound, ErrNotFound, nil, nil}
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

// TestShardedCrossShardDuplicateScore pins the fleet-wide score
// guard: the duplicate lives on a different shard than the insert
// target, where per-shard structures alone cannot see it.
func TestShardedCrossShardDuplicateScore(t *testing.T) {
	gen := workload.NewGen(62)
	pts := gen.Uniform(4000, 1e6)
	idx := mustLoadSharded(t, testShardedConfig(4), pts)
	cuts := idx.Boundaries()
	if len(cuts) != 3 {
		t.Fatalf("boundaries: %v", cuts)
	}
	// A score living in the first shard, inserted at a position in the
	// last shard.
	victim := idx.TopK(math.Inf(-1), cuts[0]-1e-9, 1)[0]
	target := (cuts[len(cuts)-1] + 1e6) / 2
	if err := idx.Insert(target, victim.Score); !errors.Is(err, ErrDuplicateScore) {
		t.Fatalf("cross-shard duplicate score: %v, want ErrDuplicateScore", err)
	}
	// Delete the victim and the score becomes free again, anywhere.
	if !idx.Delete(victim.X, victim.Score) {
		t.Fatal("delete victim")
	}
	mustInsert(t, idx, target, victim.Score)
	if got := idx.TopK(target, target, 1); len(got) != 1 || got[0].Score != victim.Score {
		t.Fatalf("reinserted score not served: %v", got)
	}
}

// TestQueryBatchDifferential: QueryBatch must equal k sequential TopK
// calls byte-for-byte on both backends, including batches whose
// queries straddle shard boundaries and degenerate queries.
func TestQueryBatchDifferential(t *testing.T) {
	gen := workload.NewGen(63)
	pts := gen.Clustered(5000, 4, 1e6)
	backends := storeBackends(t, pts)

	qs := workloadQueries(gen, backends["sharded"].(*Sharded))
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

	// And across backends: batched answers agree between Index and
	// Sharded.
	a := backends["index"].QueryBatch(qs)
	b := backends["sharded"].QueryBatch(qs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("QueryBatch diverged between backends")
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
func workloadQueries(gen *workload.Gen, sharded *Sharded) []Query {
	qs := gen.Queries(40, 1e6, 0.001, 0.9, 200)
	for _, cut := range sharded.Boundaries() {
		qs = append(qs,
			Query{X1: cut - 1e4, X2: cut + 1e4, K: 17},
			Query{X1: cut, X2: cut + 1e4, K: 5},
			Query{X1: cut - 1e4, X2: cut, K: 5},
		)
	}
	qs = append(qs,
		Query{X1: math.Inf(-1), X2: math.Inf(1), K: 1 << 20}, // all shards, huge k
		Query{X1: 10, X2: 5, K: 3},                           // inverted
		Query{X1: 0, X2: 1e6, K: 0},                          // k = 0
		Query{X1: math.NaN(), X2: 1e6, K: 3},                 // NaN bound
		Query{X1: 2e6, X2: 3e6, K: 3},                        // empty range
	)
	return qs
}

// TestQueryBatchConcurrent is the -race workhorse for the batched
// read path: QueryBatch storms run against concurrent ApplyBatch
// writers and a rebalancer; every answer must be internally ordered
// and every point must belong to its query range.
func TestQueryBatchConcurrent(t *testing.T) {
	idx := mustLoadSharded(t, testShardedConfig(8), workload.NewGen(64).Uniform(3000, 1e6))
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := workload.NewGen(int64(100 + w))
			for round := 0; round < 5; round++ {
				ops := make([]BatchOp, 0, 40)
				for _, p := range gen.Uniform(40, 1e5) {
					// Disjoint per-writer bands, outside the preload domain.
					ops = append(ops, BatchOp{X: 2e6 + float64(w)*1e6 + p.X, Score: 10 + float64(w) + p.Score/2})
				}
				for i, err := range idx.ApplyBatch(ops) {
					if err != nil {
						t.Errorf("writer %d op %d: %v", w, i, err)
						return
					}
				}
			}
		}(w)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen := workload.NewGen(int64(200 + g))
			for i := 0; i < 20; i++ {
				qs := gen.Queries(8, 6e6, 0.01, 0.5, 30)
				for qi, res := range idx.QueryBatch(qs) {
					for j, p := range res {
						if p.X < qs[qi].X1 || p.X > qs[qi].X2 {
							t.Errorf("point %v outside query %+v", p, qs[qi])
							return
						}
						if j > 0 && res[j].Score > res[j-1].Score {
							t.Error("batched answer out of order under concurrency")
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			idx.Rebalance(4 + i)
		}
	}()
	wg.Wait()
}

// TestIndexApplyBatchMatchesSequential: ApplyBatch on the sequential
// backend is exactly the op-by-op loop.
func TestIndexApplyBatchMatchesSequential(t *testing.T) {
	gen := workload.NewGen(65)
	base := gen.Uniform(1500, 1e6)
	batched := mustLoad(t, smallCfg(), base)
	looped := mustLoad(t, smallCfg(), base)

	ops := gen.Mix(1200, 800, 0.4, 1e6)
	res := batched.ApplyBatch(ops)
	for i, op := range ops {
		var err error
		if op.Delete {
			if !looped.Delete(op.X, op.Score) {
				err = ErrNotFound
			}
		} else {
			err = looped.Insert(op.X, op.Score)
		}
		if !errors.Is(res[i], err) {
			t.Fatalf("op %d: batch %v vs loop %v", i, res[i], err)
		}
	}
	if batched.Len() != looped.Len() {
		t.Fatalf("Len %d vs %d", batched.Len(), looped.Len())
	}
	for _, q := range gen.Queries(40, 1e6, 0.01, 0.7, 60) {
		if !reflect.DeepEqual(batched.TopK(q.X1, q.X2, q.K), looped.TopK(q.X1, q.X2, q.K)) {
			t.Fatalf("divergence on %+v", q)
		}
	}
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
			batch := st.QueryBatch([]Query{{X1: math.Inf(-1), X2: math.Inf(1), K: k}})
			if !reflect.DeepEqual(batch[0], got) {
				t.Fatalf("%s: QueryBatch(k=%d) diverged from TopK", name, k)
			}
		}
	}
}

// TestChurnDifferential is the lifecycle differential: randomized
// interleaved inserts, deletes and rebalances drive the sharded
// router through splits AND merges, and after every phase the router
// must answer byte-identically to a sequential Index over the same
// live set, with its invariants intact. Run under -race in CI.
func TestChurnDifferential(t *testing.T) {
	cfg := testShardedConfig(8)
	gen := workload.NewGen(83)
	sharded := mustNewSharded(t, cfg)
	single := mustNew(t, cfg.Config)

	apply := func(ins []Result, delFrac float64, rng *rand.Rand, live []Result) []Result {
		for _, p := range ins {
			mustInsert(t, sharded, p.X, p.Score)
			mustInsert(t, single, p.X, p.Score)
			live = append(live, p)
		}
		for target := int(float64(len(live)) * delFrac); target > 0; target-- {
			j := rng.Intn(len(live))
			p := live[j]
			sok, iok := sharded.Delete(p.X, p.Score), single.Delete(p.X, p.Score)
			if !sok || !iok {
				t.Fatalf("Delete(%v): sharded=%v index=%v", p, sok, iok)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		return live
	}

	checkPhase := func(phase string) {
		t.Helper()
		if err := sharded.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		if sharded.Len() != single.Len() {
			t.Fatalf("%s: Len %d vs %d", phase, sharded.Len(), single.Len())
		}
		qs := gen.Queries(50, 1e6, 0.001, 0.9, 150)
		qs = append(qs, Query{X1: math.Inf(-1), X2: math.Inf(1), K: 5000})
		for _, cut := range sharded.Boundaries() {
			qs = append(qs, Query{X1: cut - 1e4, X2: cut + 1e4, K: 50})
		}
		for _, q := range qs {
			got, want := sharded.TopK(q.X1, q.X2, q.K), single.TopK(q.X1, q.X2, q.K)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: TopK(%v,%v,%d):\n got %v\nwant %v", phase, q.X1, q.X2, q.K, got, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(84))
	var live []Result

	live = apply(gen.Uniform(5000, 1e6), 0, rng, live) // grow: splits
	if sharded.Splits() == 0 {
		t.Fatalf("no splits during growth: %s", sharded)
	}
	checkPhase("grow")
	grown := sharded.NumShards()

	live = apply(nil, 0.9, rng, live) // shrink: merges
	if sharded.Merges() == 0 {
		t.Fatalf("no merges after 90%% deletes: %s", sharded)
	}
	if got := sharded.NumShards(); got >= grown {
		t.Fatalf("NumShards %d did not shrink below split-era %d", got, grown)
	}
	checkPhase("shrink")

	sharded.Rebalance(0) // single is rebalance-free; contents must agree regardless
	checkPhase("rebalance")

	live = apply(gen.Uniform(2500, 1e6), 0.3, rng, live) // refill churn
	checkPhase("refill")
	_ = live
}
