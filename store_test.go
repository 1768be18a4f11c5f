package topk

// Tests of the in-process backends' side of the v1 Store contract: the
// fleet-wide score guard, batched reads raced by concurrent writers
// under -race, ApplyBatch ≡ the op-by-op loop on Index, and the
// lifecycle differential. The contract every tier shares is tested in
// store_tiers_test.go.

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/workload"
)

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
