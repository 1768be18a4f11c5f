package topk

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

func testShardedConfig(shards int) ShardedConfig {
	return ShardedConfig{
		Config:   Config{ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 2048},
		Shards:   shards,
		MinSplit: 256,
	}
}

// TestShardedTopKAddsNoAllocs is the public twin of the router's
// TestRouterTopKAddsNoAllocs: for an interval one shard covers,
// Sharded.TopK hands the router's answer straight to the caller, so it
// allocates no more than the router's own TopK.
func TestShardedTopKAddsNoAllocs(t *testing.T) {
	s := mustLoadSharded(t, testShardedConfig(4), workload.NewGen(31).Uniform(4000, 1e6))
	cuts := s.Boundaries()
	if len(cuts) < 2 {
		t.Fatalf("bulk load produced %d cuts; need an interior shard", len(cuts))
	}
	x1, x2 := cuts[0], cuts[0]+(cuts[1]-cuts[0])/2
	const k = 10
	if got := s.TopK(x1, x2, k); len(got) != k { // also warms the shard's buffer pool
		t.Fatalf("TopK over half a shard returned %d points, want %d", len(got), k)
	}
	router := testing.AllocsPerRun(100, func() { s.r.TopK(x1, x2, k) })
	public := testing.AllocsPerRun(100, func() { s.TopK(x1, x2, k) })
	if public > router {
		t.Fatalf("Sharded.TopK allocates %.1f/op vs %.1f/op for the router's TopK; the public layer must add zero", public, router)
	}
}

// TestShardedMatchesIndex is the acceptance test: on identical point
// sets, Sharded must return byte-identical results to a single Index
// for randomized queries, including boundary-straddling ones, under
// interleaved updates.
func TestShardedMatchesIndex(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		gen := workload.NewGen(int64(40 + shards))
		pts := gen.Uniform(3000, 1e6)
		single := mustLoad(t, Config{ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 2048}, pts)
		sharded := mustLoadSharded(t, testShardedConfig(shards), pts)

		check := func(x1, x2 float64, k int) {
			t.Helper()
			got := sharded.TopK(x1, x2, k)
			want := single.TopK(x1, x2, k)
			if len(got) == 0 && len(want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d TopK(%v,%v,%d):\n got %v\nwant %v", shards, x1, x2, k, got, want)
			}
			if gc, wc := sharded.Count(x1, x2), single.Count(x1, x2); gc != wc {
				t.Fatalf("shards=%d Count(%v,%v): got %d want %d", shards, x1, x2, gc, wc)
			}
		}

		for _, q := range gen.Queries(80, 1e6, 0.001, 0.9, 250) {
			check(q.X1, q.X2, q.K)
		}
		check(math.Inf(-1), math.Inf(1), 3000)

		// Interleave updates through both and re-check.
		for _, u := range gen.Mix(800, 600, 0.4, 1e6) {
			if u.Delete {
				sok := single.Delete(u.X, u.Score)
				dok := sharded.Delete(u.X, u.Score)
				if sok != dok {
					t.Fatalf("Delete divergence: single=%v sharded=%v", sok, dok)
				}
			} else {
				mustInsert(t, single, u.X, u.Score)
				mustInsert(t, sharded, u.X, u.Score)
			}
		}
		if single.Len() != sharded.Len() {
			t.Fatalf("Len divergence: %d vs %d", single.Len(), sharded.Len())
		}
		for _, q := range gen.Queries(60, 1e6, 0.001, 0.8, 200) {
			check(q.X1, q.X2, q.K)
		}
	}
}

func TestShardedApplyBatchAndConcurrentReads(t *testing.T) {
	idx := mustNewSharded(t, testShardedConfig(8))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := workload.NewGen(int64(w + 1))
			// Disjoint position and score bands per writer.
			for round := 0; round < 4; round++ {
				ops := make([]BatchOp, 0, 50)
				for _, p := range gen.Uniform(50, 1000) {
					ops = append(ops, BatchOp{X: float64(w)*1000 + p.X, Score: float64(w) + p.Score/2})
				}
				for i, err := range idx.ApplyBatch(ops) {
					if err != nil {
						t.Errorf("batch insert %d: %v", i, err)
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
			rng := rand.New(rand.NewSource(int64(g + 50)))
			for i := 0; i < 30; i++ {
				x1 := rng.Float64() * 3500
				res := idx.TopK(x1, x1+500, 10)
				for j := 1; j < len(res); j++ {
					if res[j].Score > res[j-1].Score {
						t.Error("descending order violated under concurrency")
						return
					}
				}
				idx.Count(x1, x1+500)
			}
		}(g)
	}
	wg.Wait()
	if got, want := idx.Len(), 4*4*50; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}

// TestLoadShardedDefaults: a zero ShardedConfig must honor the
// documented defaults — LoadSharded pre-partitions into 8 quantile
// shards, not a single serialized one.
func TestLoadShardedDefaults(t *testing.T) {
	gen := workload.NewGen(31)
	pts := gen.Uniform(4000, 1e6)
	idx := mustLoadSharded(t, ShardedConfig{
		Config: Config{ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 2048},
	}, pts)
	if got := idx.NumShards(); got != 8 {
		t.Fatalf("NumShards with zero config = %d, want the default 8", got)
	}
	if idx.Len() != len(pts) {
		t.Fatalf("Len = %d", idx.Len())
	}
	if got := len(idx.Boundaries()); got != 7 {
		t.Fatalf("Boundaries len = %d, want 7", got)
	}
}

// TestMergeAfterHeavyDeletes is the public acceptance test for the
// shard lifecycle: bulk-load a full 8-shard fleet, delete 90% of the
// points through the Store interface, and the fleet must coalesce —
// fewer shards than the split era, invariants intact, answers still
// byte-identical to a sequential Index over the survivors.
func TestMergeAfterHeavyDeletes(t *testing.T) {
	gen := workload.NewGen(71)
	pts := gen.Uniform(4000, 1e6)
	sharded := mustLoadSharded(t, testShardedConfig(8), pts)
	if sharded.NumShards() != 8 {
		t.Fatalf("NumShards = %d, want 8", sharded.NumShards())
	}
	for _, p := range pts[:3600] {
		if !sharded.Delete(p.X, p.Score) {
			t.Fatalf("Delete(%v) not found", p)
		}
	}
	if got := sharded.NumShards(); got >= 8 {
		t.Fatalf("NumShards after 90%% deletes = %d, want < 8: %s", got, sharded)
	}
	if sharded.Merges() == 0 {
		t.Fatal("Merges() = 0 after heavy deletes")
	}
	if err := sharded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	single := mustLoad(t, testShardedConfig(8).Config, pts[3600:])
	for _, q := range gen.Queries(60, 1e6, 0.001, 0.9, 150) {
		got, want := sharded.TopK(q.X1, q.X2, q.K), single.TopK(q.X1, q.X2, q.K)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TopK(%v,%v,%d):\n got %v\nwant %v", q.X1, q.X2, q.K, got, want)
		}
	}
	if got, want := sharded.Len(), 400; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}

// TestMaintenancePassCoalescesStrandedFleet drives the public API
// into a state the inline lifecycle hooks can never repair, then
// proves one maintenance pass repairs it with zero further writes.
//
// The construction: shard 0 is drained while its only neighbor is
// heavy, so every inline merge check hits the hysteresis veto (the
// combined shard would trip the split test). Then the neighbor is
// drained — but an inline check only re-examines the shard a delete
// just touched, and the neighbor itself never becomes underloaded, so
// shard 0 stays stranded no matter how long the fleet sits idle.
// That asymmetry is exactly why the timer-driven pass exists.
func TestMaintenancePassCoalescesStrandedFleet(t *testing.T) {
	cfg := testShardedConfig(4) // MinSplit 256 → merge floor 128
	gen := workload.NewGen(91)
	pts := gen.Uniform(4000, 1e6)
	sharded := mustLoadSharded(t, cfg, pts)
	defer sharded.Close()
	cuts := sharded.Boundaries()
	if len(cuts) != 3 {
		t.Fatalf("Boundaries = %v", cuts)
	}
	shardOf := func(x float64) int {
		i := 0
		for i < len(cuts) && x >= cuts[i] {
			i++
		}
		return i
	}
	var live []Result

	// Overload shard 1 at the shard cap (no splits can fire) so the
	// veto pins shard 0 in place during the next phase. The first 700
	// synthetic points survive the whole test; the rest are drained in
	// the lightening phase below.
	for i := 0; i < 3000; i++ {
		x := cuts[0] + (cuts[1]-cuts[0])*float64(i+1)/3001
		mustInsert(t, sharded, x, 1000+float64(i))
		if i < 700 {
			live = append(live, Result{X: x, Score: 1000 + float64(i)})
		}
	}

	// Drain shard 0 to 50 points: every delete observes it underloaded,
	// but merging into the 4000-point neighbor is always vetoed.
	kept := 0
	for _, p := range pts {
		switch shardOf(p.X) {
		case 0:
			if kept < 50 {
				kept++
				live = append(live, p)
				continue
			}
			if !sharded.Delete(p.X, p.Score) {
				t.Fatalf("Delete(%v) not found", p)
			}
		case 1:
			// Drain the original shard-1 members too; the synthetic
			// overload points above keep the shard heavy meanwhile.
			if !sharded.Delete(p.X, p.Score) {
				t.Fatalf("Delete(%v) not found", p)
			}
		default:
			live = append(live, p)
		}
	}
	// Now lighten shard 1 (4000 → 700): it never becomes underloaded
	// itself, so no inline check ever re-examines stranded shard 0.
	for i := 700; i < 3000; i++ {
		x := cuts[0] + (cuts[1]-cuts[0])*float64(i+1)/3001
		if !sharded.Delete(x, 1000+float64(i)) {
			t.Fatalf("Delete(synthetic %d) not found", i)
		}
	}

	if got := sharded.NumShards(); got != 4 {
		t.Fatalf("fleet not stranded: NumShards = %d, want 4: %s", got, sharded)
	}
	if sharded.Merges() != 0 || sharded.Splits() != 0 {
		t.Fatalf("unexpected lifecycle activity: splits=%d merges=%d", sharded.Splits(), sharded.Merges())
	}

	// One maintenance pass — zero further writes — must coalesce the
	// stranded shard into its now-light neighbor.
	epoch := sharded.Epoch()
	sharded.Maintain()
	if got := sharded.NumShards(); got != 3 {
		t.Fatalf("NumShards after Maintain = %d, want 3: %s", got, sharded)
	}
	if sharded.Merges() != 1 {
		t.Fatalf("Merges after Maintain = %d, want 1", sharded.Merges())
	}
	if sharded.Epoch() <= epoch {
		t.Fatalf("epoch did not advance: %d -> %d", epoch, sharded.Epoch())
	}
	if err := sharded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Answers stay byte-identical to a sequential Index over the
	// surviving points.
	if got, want := sharded.Len(), len(live); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	single := mustLoad(t, cfg.Config, live)
	qs := gen.Queries(60, 1e6, 0.001, 0.9, 150)
	for _, q := range qs {
		got, want := sharded.TopK(q.X1, q.X2, q.K), single.TopK(q.X1, q.X2, q.K)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TopK(%v,%v,%d):\n got %v\nwant %v", q.X1, q.X2, q.K, got, want)
		}
	}
}

// TestMaintenanceBackgroundLoopPublic: the config knob wires through —
// a Sharded built with MaintenanceInterval runs the loop, coalesces a
// delete-heavy fleet while idle, and Close (idempotent) stops it.
func TestMaintenanceBackgroundLoopPublic(t *testing.T) {
	cfg := testShardedConfig(8)
	cfg.MaintenanceInterval = 2 * time.Millisecond
	gen := workload.NewGen(93)
	pts := gen.Uniform(4000, 1e6)
	idx := mustLoadSharded(t, cfg, pts)
	defer idx.Close()
	for _, p := range pts[:3600] {
		if !idx.Delete(p.X, p.Score) {
			t.Fatalf("Delete(%v) not found", p)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for idx.NumShards() >= 8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := idx.NumShards(); got >= 8 {
		t.Fatalf("NumShards = %d after heavy deletes with maintenance on", got)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedStatsAndRebalance(t *testing.T) {
	gen := workload.NewGen(9)
	pts := gen.Clustered(2000, 3, 1e6)
	idx := mustLoadSharded(t, testShardedConfig(4), pts)
	if idx.NumShards() != 4 {
		t.Fatalf("NumShards = %d", idx.NumShards())
	}
	if s := idx.Stats(); s.Writes == 0 || s.BlocksLive == 0 {
		t.Fatalf("implausible stats after load: %+v", s)
	}
	before := idx.TopK(math.Inf(-1), math.Inf(1), len(pts))
	idx.Rebalance(2)
	if idx.NumShards() != 2 {
		t.Fatalf("NumShards after Rebalance(2) = %d", idx.NumShards())
	}
	after := idx.TopK(math.Inf(-1), math.Inf(1), len(pts))
	if !reflect.DeepEqual(before, after) {
		t.Fatal("Rebalance changed contents")
	}
	idx.ResetStats()
	idx.DropCache()
	idx.TopK(0, 1e6, 20)
	if idx.Stats().Reads == 0 {
		t.Fatal("cold query charged no reads")
	}
	if idx.String() == "" {
		t.Fatal("empty String")
	}
}
