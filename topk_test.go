package topk

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/point"
	"repro/internal/workload"
)

func smallCfg() Config {
	return Config{BlockWords: 32, ForcePolylog: true, PolylogF: 4, PolylogLeafCap: 64}
}

// Test-side constructors: the error returns are part of the API under
// test, so every helper asserts them.
func mustNew(t testing.TB, cfg Config) *Index {
	t.Helper()
	idx, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func mustLoad(t testing.TB, cfg Config, pts []Result) *Index {
	t.Helper()
	idx, err := Load(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func mustNewSharded(t testing.TB, cfg ShardedConfig) *Sharded {
	t.Helper()
	idx, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func mustLoadSharded(t testing.TB, cfg ShardedConfig, pts []Result) *Sharded {
	t.Helper()
	idx, err := LoadSharded(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func mustInsert(t testing.TB, st Store, pos, score float64) {
	t.Helper()
	if err := st.Insert(pos, score); err != nil {
		t.Fatalf("Insert(%v, %v): %v", pos, score, err)
	}
}

func insertAll(t testing.TB, st Store, pts []point.P) {
	t.Helper()
	for _, p := range pts {
		mustInsert(t, st, p.X, p.Score)
	}
}

func TestQuickstartFlow(t *testing.T) {
	idx := mustNew(t, Config{})
	mustInsert(t, idx, 142.50, 9.1)
	mustInsert(t, idx, 99.99, 8.4)
	mustInsert(t, idx, 180.00, 7.7)
	mustInsert(t, idx, 250.00, 9.9)
	best := idx.TopK(100, 200, 10)
	if len(best) != 2 {
		t.Fatalf("got %d results", len(best))
	}
	if best[0].Score != 9.1 || best[1].Score != 7.7 {
		t.Fatalf("wrong order: %v", best)
	}
	if idx.Count(100, 200) != 2 {
		t.Fatal("count")
	}
	if !idx.Delete(142.50, 9.1) {
		t.Fatal("delete")
	}
	if got := idx.TopK(100, 200, 1); got[0].Score != 7.7 {
		t.Fatalf("after delete: %v", got)
	}
}

func TestLoadMatchesOracle(t *testing.T) {
	gen := workload.NewGen(1)
	pts := gen.Uniform(2500, 1e5)
	idx := mustLoad(t, smallCfg(), pts)
	for _, q := range gen.Queries(120, 1e5, 0.05, 0.6, 40) {
		if got, want := idx.TopK(q.X1, q.X2, q.K), point.TopK(pts, q.X1, q.X2, q.K); !slices.Equal(got, want) {
			t.Fatalf("query %+v:\n got %v\nwant %v", q, got, want)
		}
	}
}

func TestStatsMeterMoves(t *testing.T) {
	idx := mustLoad(t, smallCfg(), workload.NewGen(2).Uniform(2000, 1e5))
	idx.ResetStats()
	idx.DropCache()
	before := idx.Stats()
	idx.TopK(1e4, 6e4, 10)
	after := idx.Stats()
	if after.Reads <= before.Reads {
		t.Fatal("query charged no reads on a cold cache")
	}
	if after.BlocksLive <= 0 {
		t.Fatal("no live blocks")
	}
}

// TestLoadValidatesPoints: bulk loads reject contract-violating
// inputs with the matching sentinel.
func TestLoadValidatesPoints(t *testing.T) {
	cases := []struct {
		name string
		pts  []Result
		want error
	}{
		{"nan position", []Result{{X: math.NaN(), Score: 1}}, ErrInvalidPoint},
		{"inf score", []Result{{X: 1, Score: math.Inf(1)}}, ErrInvalidPoint},
		{"duplicate position", []Result{{X: 1, Score: 1}, {X: 1, Score: 2}}, ErrDuplicatePosition},
		{"duplicate score", []Result{{X: 1, Score: 1}, {X: 2, Score: 1}}, ErrDuplicateScore},
	}
	for _, c := range cases {
		if _, err := Load(smallCfg(), c.pts); !errors.Is(err, c.want) {
			t.Errorf("Load %s: %v, want %v", c.name, err, c.want)
		}
		if _, err := LoadSharded(ShardedConfig{Config: smallCfg()}, c.pts); !errors.Is(err, c.want) {
			t.Errorf("LoadSharded %s: %v, want %v", c.name, err, c.want)
		}
	}
}

// TestLoadShardedErrorContract: Load and LoadSharded check the
// contract as they fill their guards, one per Index and one per fleet,
// and must return exactly the same error, naming the first offending
// point. Positions and scores come from an 8-shard
// quantile load; rank[i] is the input index of the i-th smallest
// position, so rank[10] and rank[11] share a shard and rank[n/8-1] and
// rank[n/8] lie on either side of a cut.
func TestLoadShardedErrorContract(t *testing.T) {
	const n = 2000
	base := workload.NewGen(41).Uniform(n, 1e6)
	rank := make([]int, n)
	for i := range rank {
		rank[i] = i
	}
	sort.Slice(rank, func(a, b int) bool { return base[rank[a]].X < base[rank[b]].X })
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		edit func(ps []Result)
		want error
		at   int // the input index the error must name
	}{
		{"valid", func([]Result) {}, nil, 0},
		{"duplicate position inside one shard", func(ps []Result) {
			ps[max(rank[10], rank[11])].X = ps[min(rank[10], rank[11])].X
		}, ErrDuplicatePosition, max(rank[10], rank[11])},
		{"duplicate position across a cut", func(ps []Result) {
			lo, hi := rank[n/8-1], rank[n/8]
			ps[max(lo, hi)].X = ps[min(lo, hi)].X
		}, ErrDuplicatePosition, max(rank[n/8-1], rank[n/8])},
		{"duplicate score across shards", func(ps []Result) {
			ps[max(rank[5], rank[n-5])].Score = ps[min(rank[5], rank[n-5])].Score
		}, ErrDuplicateScore, max(rank[5], rank[n-5])},
		{"position before score", func(ps []Result) {
			ps[300].X = ps[50].X
			ps[900].Score = ps[20].Score
		}, ErrDuplicatePosition, 300},
		{"score before position", func(ps []Result) {
			ps[300].Score = ps[50].Score
			ps[900].X = ps[20].X
		}, ErrDuplicateScore, 300},
		{"position and score at one index", func(ps []Result) {
			ps[500] = Result{X: ps[50].X, Score: ps[60].Score}
		}, ErrDuplicatePosition, 500},
		{"non-finite after a duplicate", func(ps []Result) {
			ps[300].Score = ps[50].Score
			ps[900].X = math.NaN()
		}, ErrDuplicateScore, 300},
		{"non-finite before a duplicate", func(ps []Result) {
			ps[300].Score = math.Inf(-1)
			ps[900].X = ps[50].X
		}, ErrInvalidPoint, 300},
		{"-0 against +0 position", func(ps []Result) {
			ps[100].X = 0
			ps[1700].X = negZero
		}, ErrDuplicatePosition, 1700},
		{"-0 against +0 score", func(ps []Result) {
			ps[100].Score = negZero
			ps[1700].Score = 0
		}, ErrDuplicateScore, 1700},
	}
	cfg := ShardedConfig{Config: smallCfg(), Shards: 8}
	for _, c := range cases {
		pts := slices.Clone(base)
		c.edit(pts)
		ix, want := Load(smallCfg(), pts)
		if !errors.Is(want, c.want) || (want != nil && !strings.Contains(want.Error(), fmt.Sprintf("load point %d ", c.at))) {
			t.Fatalf("%s: Load = %v, want %v at point %d", c.name, want, c.want, c.at)
		}
		st, err := LoadSharded(cfg, pts)
		if c.want == nil {
			if err != nil || st.Len() != n || ix.Len() != n {
				t.Fatalf("%s: LoadSharded = %v", c.name, err)
			}
			continue
		}
		if err == nil || err.Error() != want.Error() || !errors.Is(err, c.want) {
			t.Errorf("%s: LoadSharded = %v, want %v", c.name, err, want)
		}
	}
}

func TestRegimeAndThresholdExposed(t *testing.T) {
	idx := mustLoad(t, smallCfg(), workload.NewGen(3).Uniform(500, 1e4))
	if idx.KThreshold() <= 0 {
		t.Fatal("threshold")
	}
	if idx.Regime() != "polylog(§3.3)" {
		t.Fatalf("regime %q", idx.Regime())
	}
	if idx.BlockSize() != 32 {
		t.Fatalf("B=%d", idx.BlockSize())
	}
}

func TestReinsertionCycle(t *testing.T) {
	// Delete/re-insert cycles of the same keys must work: the §2 tree
	// keeps stale x-coordinates by design, and every layer has to cope.
	idx := mustNew(t, smallCfg())
	gen := workload.NewGen(77)
	pts := gen.Uniform(300, 1e4)
	insertAll(t, idx, pts)
	for round := 0; round < 4; round++ {
		for _, p := range pts {
			if !idx.Delete(p.X, p.Score) {
				t.Fatalf("round %d: delete failed", round)
			}
		}
		insertAll(t, idx, pts)
	}
	for _, q := range gen.Queries(40, 1e4, 0.1, 0.6, 12) {
		if got, want := idx.TopK(q.X1, q.X2, q.K), point.TopK(pts, q.X1, q.X2, q.K); !slices.Equal(got, want) {
			t.Fatalf("after cycles, query %+v:\n got %v\nwant %v", q, got, want)
		}
	}
}

func TestQuickPublicAPI(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		if len(ops) > 60 {
			ops = ops[:60]
		}
		rng := rand.New(rand.NewSource(seed))
		idx := mustNew(t, Config{BlockWords: 8, ForcePolylog: true, PolylogF: 3, PolylogLeafCap: 16})
		var live []point.P
		usedX := map[float64]bool{}
		for _, op := range ops {
			if op%4 != 0 || len(live) == 0 {
				p := point.P{X: float64(op) + rng.Float64(), Score: rng.Float64() * 1e6}
				if usedX[p.X] {
					continue
				}
				usedX[p.X] = true
				if err := idx.Insert(p.X, p.Score); err != nil {
					return false
				}
				live = append(live, p)
			} else {
				i := int(op/4) % len(live)
				p := live[i]
				delete(usedX, p.X)
				if !idx.Delete(p.X, p.Score) {
					return false
				}
				live = slices.Delete(live, i, i+1)
			}
		}
		abs := seed
		if abs < 0 {
			abs = -abs
		}
		x1 := float64(abs % 30000)
		k := int(abs%9) + 1
		got := idx.TopK(x1, x1+25000, k)
		return slices.Equal(got, point.TopK(live, x1, x1+25000, k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
