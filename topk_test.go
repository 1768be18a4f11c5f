package topk

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/point"
	"repro/internal/verify"
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
	oracle := verify.NewOracle(pts)
	for _, q := range gen.Queries(120, 1e5, 0.05, 0.6, 40) {
		got := idx.TopK(q.X1, q.X2, q.K)
		if err := verify.DiffTopK(got, oracle.TopK(q.X1, q.X2, q.K)); err != nil {
			t.Fatalf("query %+v: %v", q, err)
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

// TestConfigValidation: contradictory configs are ErrConfig errors
// from every constructor, not panics.
func TestConfigValidation(t *testing.T) {
	bad := Config{ForcePolylog: true, ForceBaseline: true}
	if _, err := New(bad); !errors.Is(err, ErrConfig) {
		t.Fatalf("New: %v, want ErrConfig", err)
	}
	if _, err := Load(bad, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("Load: %v, want ErrConfig", err)
	}
	if _, err := NewSharded(ShardedConfig{Config: bad}); !errors.Is(err, ErrConfig) {
		t.Fatalf("NewSharded: %v, want ErrConfig", err)
	}
	if _, err := LoadSharded(ShardedConfig{Config: bad}, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("LoadSharded: %v, want ErrConfig", err)
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
	oracle := verify.NewOracle(pts)
	for _, q := range gen.Queries(40, 1e4, 0.1, 0.6, 12) {
		got := idx.TopK(q.X1, q.X2, q.K)
		if err := verify.DiffTopK(got, oracle.TopK(q.X1, q.X2, q.K)); err != nil {
			t.Fatalf("after cycles: %v", err)
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
		oracle := verify.NewOracle(nil)
		usedX := map[float64]bool{}
		for _, op := range ops {
			if op%4 != 0 || oracle.Len() == 0 {
				p := point.P{X: float64(op) + rng.Float64(), Score: rng.Float64() * 1e6}
				if usedX[p.X] {
					continue
				}
				usedX[p.X] = true
				if err := idx.Insert(p.X, p.Score); err != nil {
					return false
				}
				oracle.Insert(p)
			} else {
				live := oracle.Live()
				p := live[int(op/4)%len(live)]
				delete(usedX, p.X)
				if !idx.Delete(p.X, p.Score) {
					return false
				}
				oracle.Delete(p)
			}
		}
		abs := seed
		if abs < 0 {
			abs = -abs
		}
		x1 := float64(abs % 30000)
		k := int(abs%9) + 1
		got := idx.TopK(x1, x1+25000, k)
		return verify.DiffTopK(got, oracle.TopK(x1, x1+25000, k)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
