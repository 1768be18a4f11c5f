package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/em"
	"repro/internal/point"
	"repro/internal/verify"
	"repro/internal/workload"
)

func newDisk(b int) *em.Disk { return em.NewDisk(em.Config{B: b, M: 64 * b}) }

// testOpts keeps the polylog component multi-level at test scale.
func testOpts() Options {
	return Options{Regime: RegimePolylog, PolylogF: 4, PolylogLeafCap: 64}
}

func TestEmptyIndex(t *testing.T) {
	ix := New(newDisk(32), testOpts())
	if ix.Len() != 0 {
		t.Fatal("not empty")
	}
	if got := ix.Query(0, 10, 5); got != nil {
		t.Fatalf("query: %v", got)
	}
	if ix.Delete(point.P{X: 1, Score: 1}) {
		t.Fatal("phantom delete")
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkSmallKQueries(t *testing.T) {
	gen := workload.NewGen(1)
	pts := gen.Uniform(3000, 1e5)
	ix := Bulk(newDisk(32), testOpts(), pts)
	oracle := verify.NewOracle(pts)
	for _, q := range gen.Queries(150, 1e5, 0.05, 0.6, 20) {
		got := ix.Query(q.X1, q.X2, q.K)
		want := oracle.TopK(q.X1, q.X2, q.K)
		if err := verify.DiffTopK(got, want); err != nil {
			t.Fatalf("query %+v: %v", q, err)
		}
		if !verify.SortedDesc(got) {
			t.Fatalf("query %+v: unsorted", q)
		}
	}
}

func TestBulkLargeKQueries(t *testing.T) {
	gen := workload.NewGen(2)
	pts := gen.Uniform(3000, 1e5)
	ix := Bulk(newDisk(32), testOpts(), pts)
	oracle := verify.NewOracle(pts)
	thr := ix.KThreshold()
	for _, k := range []int{thr, thr + 5, 2 * thr, 2900, 3000, 4000} {
		got := ix.Query(1e4, 9e4, k)
		want := oracle.TopK(1e4, 9e4, k)
		if err := verify.DiffTopK(got, want); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestThresholdDispatch(t *testing.T) {
	ix := Bulk(newDisk(32), testOpts(), workload.NewGen(3).Uniform(1000, 1e4))
	thr := ix.KThreshold()
	if thr != 32*11 { // B=32, lg(2000) = 11
		t.Fatalf("threshold %d, want %d", thr, 32*11)
	}
	if ix.CurrentRegime() != RegimePolylog {
		t.Fatalf("regime %v", ix.CurrentRegime())
	}
}

func TestAutoRegimeSelection(t *testing.T) {
	// Tiny lg n with huge B → baseline regime; the reverse → polylog.
	d := em.NewDisk(em.Config{B: 4096, M: 64 * 4096})
	ix := New(d, Options{Regime: RegimeAuto})
	if ix.CurrentRegime() != RegimeBaseline {
		t.Fatalf("B=4096 n=0: regime %v, want baseline (lg⁶N = %d ≤ B)", ix.CurrentRegime(), 4*4*4*4*4*4)
	}
	d2 := em.NewDisk(em.Config{B: 8, M: 64 * 8})
	ix2 := New(d2, Options{Regime: RegimeAuto})
	if ix2.CurrentRegime() != RegimePolylog {
		t.Fatalf("B=8: regime %v, want polylog", ix2.CurrentRegime())
	}
}

func TestBaselineRegimeQueries(t *testing.T) {
	gen := workload.NewGen(4)
	pts := gen.Uniform(1500, 1e5)
	ix := Bulk(newDisk(32), Options{Regime: RegimeBaseline}, pts)
	oracle := verify.NewOracle(pts)
	for _, q := range gen.Queries(100, 1e5, 0.05, 0.5, 25) {
		if err := verify.DiffTopK(ix.Query(q.X1, q.X2, q.K), oracle.TopK(q.X1, q.X2, q.K)); err != nil {
			t.Fatalf("query %+v: %v", q, err)
		}
	}
}

func TestIncrementalMixedWorkload(t *testing.T) {
	gen := workload.NewGen(5)
	ix := New(newDisk(32), testOpts())
	oracle := verify.NewOracle(nil)
	for i, u := range gen.Mix(3000, 500, 0.4, 1e5) {
		if p := u.Point(); !u.Delete {
			ix.Insert(p)
			oracle.Insert(p)
		} else {
			if got, want := ix.Delete(p), oracle.Delete(p); got != want {
				t.Fatalf("op %d: delete %v vs %v", i, got, want)
			}
		}
		if i%250 == 125 {
			q := gen.Queries(1, 1e5, 0.1, 0.5, 15)[0]
			if err := verify.DiffTopK(ix.Query(q.X1, q.X2, q.K), oracle.TopK(q.X1, q.X2, q.K)); err != nil {
				t.Fatalf("op %d query: %v", i, err)
			}
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != oracle.Len() {
		t.Fatalf("len %d vs %d", ix.Len(), oracle.Len())
	}
}

func TestGlobalRebuildTriggers(t *testing.T) {
	gen := workload.NewGen(6)
	pts := gen.Uniform(200, 1e4)
	ix := Bulk(newDisk(32), testOpts(), pts)
	n0 := ix.N
	// Grow past N: a rebuild must fire and answers stay correct.
	more := gen.Uniform(300, 1e4)
	for _, p := range more {
		ix.Insert(p)
	}
	if ix.N == n0 {
		t.Fatal("no rebuild after doubling")
	}
	oracle := verify.NewOracle(append(pts, more...))
	for _, q := range gen.Queries(40, 1e4, 0.1, 0.6, 12) {
		if err := verify.DiffTopK(ix.Query(q.X1, q.X2, q.K), oracle.TopK(q.X1, q.X2, q.K)); err != nil {
			t.Fatalf("post-rebuild query: %v", err)
		}
	}
	// Shrink to a quarter: rebuild fires again.
	all := oracle.Live()
	for _, p := range all[:400] {
		ix.Delete(p)
		oracle.Delete(p)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, q := range gen.Queries(40, 1e4, 0.1, 0.6, 12) {
		if err := verify.DiffTopK(ix.Query(q.X1, q.X2, q.K), oracle.TopK(q.X1, q.X2, q.K)); err != nil {
			t.Fatalf("post-shrink query: %v", err)
		}
	}
}

func TestCount(t *testing.T) {
	gen := workload.NewGen(7)
	pts := gen.Uniform(800, 1e4)
	ix := Bulk(newDisk(32), testOpts(), pts)
	oracle := verify.NewOracle(pts)
	for _, q := range gen.Queries(100, 1e4, 0.05, 0.7, 5) {
		if got, want := ix.Count(q.X1, q.X2), oracle.Count(q.X1, q.X2); got != want {
			t.Fatalf("count [%v,%v]: %d want %d", q.X1, q.X2, got, want)
		}
	}
}

func TestFullRangeAllK(t *testing.T) {
	gen := workload.NewGen(8)
	pts := gen.Uniform(500, 1e4)
	ix := Bulk(newDisk(16), testOpts(), pts)
	oracle := verify.NewOracle(pts)
	for k := 1; k <= 520; k += 13 {
		got := ix.Query(math.Inf(-1), math.Inf(1), k)
		want := oracle.TopK(math.Inf(-1), math.Inf(1), k)
		if err := verify.DiffTopK(got, want); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestCorrelatedAndClusteredWorkloads(t *testing.T) {
	gen := workload.NewGen(9)
	for name, pts := range map[string][]point.P{
		"clustered":  gen.Clustered(1200, 6, 1e5),
		"correlated": gen.Correlated(1200, 1e5, 0.8),
		"anti":       gen.Correlated(1200, 1e5, -0.8),
	} {
		ix := Bulk(newDisk(32), testOpts(), pts)
		oracle := verify.NewOracle(pts)
		for _, q := range gen.Queries(60, 1e5, 0.05, 0.5, 16) {
			if err := verify.DiffTopK(ix.Query(q.X1, q.X2, q.K), oracle.TopK(q.X1, q.X2, q.K)); err != nil {
				t.Fatalf("%s %+v: %v", name, q, err)
			}
		}
	}
}

func TestSpaceLinear(t *testing.T) {
	d := newDisk(64)
	gen := workload.NewGen(10)
	pts := gen.Uniform(20000, 1e6)
	Bulk(d, Options{Regime: RegimePolylog, PolylogF: 4, PolylogLeafCap: 512}, pts)
	live := d.Stats().BlocksLive
	// Two linear structures plus metadata; generous envelope.
	if bound := int64(40 * 20000 / 64); live > bound {
		t.Fatalf("space %d blocks > %d", live, bound)
	}
	t.Logf("space: %d blocks for n=20000, B=64 (n/B = %d)", live, 20000/64)
}

func TestUpdateIOCost(t *testing.T) {
	d := newDisk(64)
	ix := New(d, Options{Regime: RegimePolylog, PolylogF: 4, PolylogLeafCap: 512})
	gen := workload.NewGen(11)
	pts := gen.Uniform(4000, 1e6)
	for _, p := range pts[:2000] {
		ix.Insert(p)
	}
	d.DropCache()
	base := d.Stats()
	for _, p := range pts[2000:] {
		ix.Insert(p)
	}
	per := float64(d.Stats().Sub(base).IOs()) / 2000
	if per > 400 {
		t.Fatalf("amortized insert %.1f I/Os", per)
	}
	t.Logf("amortized insert: %.1f I/Os", per)
}

// Property: the composed index agrees with the oracle on arbitrary
// update interleavings and ks straddling the threshold.
func TestQuickIndexModel(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		if len(ops) > 80 {
			ops = ops[:80]
		}
		rng := rand.New(rand.NewSource(seed))
		ix := New(newDisk(8), Options{Regime: RegimePolylog, PolylogF: 3, PolylogLeafCap: 16})
		oracle := verify.NewOracle(nil)
		usedX := map[float64]bool{}
		for _, op := range ops {
			if op%4 != 0 || oracle.Len() == 0 {
				p := point.P{X: float64(op) + rng.Float64(), Score: rng.Float64() * 1e6}
				if usedX[p.X] {
					continue
				}
				usedX[p.X] = true
				ix.Insert(p)
				oracle.Insert(p)
			} else {
				live := oracle.Live()
				p := live[int(op/4)%len(live)]
				delete(usedX, p.X)
				if !ix.Delete(p) {
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
		x2 := x1 + 25000
		for _, k := range []int{1, 3, int(abs%50) + 1, ix.KThreshold(), ix.KThreshold() + 10} {
			if verify.DiffTopK(ix.Query(x1, x2, k), oracle.TopK(x1, x2, k)) != nil {
				return false
			}
		}
		return ix.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIndexInsert(b *testing.B) {
	d := em.NewDisk(em.Config{B: 64, M: 64 * 64})
	ix := New(d, Options{Regime: RegimePolylog, PolylogF: 4, PolylogLeafCap: 512})
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Insert(point.P{X: rng.Float64() * 1e9, Score: rng.Float64()})
	}
}

func BenchmarkIndexQuerySmallK(b *testing.B) {
	d := em.NewDisk(em.Config{B: 64, M: 64 * 64})
	ix := Bulk(d, Options{Regime: RegimePolylog, PolylogF: 4, PolylogLeafCap: 512},
		workload.NewGen(1).Uniform(20000, 1e6))
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x1 := rng.Float64() * 5e5
		ix.Query(x1, x1+3e5, 10)
	}
}
