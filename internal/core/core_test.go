package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/em"
	"repro/internal/point"
	"repro/internal/workload"
)

func newDisk(b int) *em.Disk { return em.NewDisk(em.Config{B: b, M: 64 * b}) }

// testOpts keeps the polylog component multi-level at test scale.
func testOpts() Options {
	return Options{Regime: RegimePolylog, PolylogF: 4, PolylogLeafCap: 64}
}

// checkTopK compares ix's answer to q with the top k of live by brute
// force, order included.
func checkTopK(t *testing.T, ix *Index, live []point.P, q point.Query) {
	t.Helper()
	if got, want := ix.Query(q.X1, q.X2, q.K), point.TopK(live, q.X1, q.X2, q.K); !slices.Equal(got, want) {
		t.Fatalf("query %+v:\n got %v\nwant %v", q, got, want)
	}
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
	for _, q := range gen.Queries(150, 1e5, 0.05, 0.6, 20) {
		checkTopK(t, ix, pts, q)
	}
}

func TestBulkLargeKQueries(t *testing.T) {
	gen := workload.NewGen(2)
	pts := gen.Uniform(3000, 1e5)
	ix := Bulk(newDisk(32), testOpts(), pts)
	thr := ix.KThreshold()
	for _, k := range []int{thr, thr + 5, 2 * thr, 2900, 3000, 4000} {
		checkTopK(t, ix, pts, point.Query{X1: 1e4, X2: 9e4, K: k})
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
	for _, q := range gen.Queries(100, 1e5, 0.05, 0.5, 25) {
		checkTopK(t, ix, pts, q)
	}
}

func TestIncrementalMixedWorkload(t *testing.T) {
	gen := workload.NewGen(5)
	ix := New(newDisk(32), testOpts())
	var live []point.P
	for i, u := range gen.Mix(3000, 500, 0.4, 1e5) {
		if p := u.Point(); !u.Delete {
			ix.Insert(p)
			live = append(live, p)
		} else {
			j := slices.Index(live, p)
			if got := ix.Delete(p); got != (j >= 0) {
				t.Fatalf("op %d: delete %v vs %v", i, got, j >= 0)
			}
			if j >= 0 {
				live = slices.Delete(live, j, j+1)
			}
		}
		if i%250 == 125 {
			checkTopK(t, ix, live, gen.Queries(1, 1e5, 0.1, 0.5, 15)[0])
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != len(live) {
		t.Fatalf("len %d vs %d", ix.Len(), len(live))
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
	live := append(pts, more...)
	for _, q := range gen.Queries(40, 1e4, 0.1, 0.6, 12) {
		checkTopK(t, ix, live, q)
	}
	// Shrink to a quarter: rebuild fires again.
	for _, p := range live[:400] {
		ix.Delete(p)
	}
	live = live[400:]
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, q := range gen.Queries(40, 1e4, 0.1, 0.6, 12) {
		checkTopK(t, ix, live, q)
	}
}

func TestCount(t *testing.T) {
	gen := workload.NewGen(7)
	pts := gen.Uniform(800, 1e4)
	ix := Bulk(newDisk(32), testOpts(), pts)
	for _, q := range gen.Queries(100, 1e4, 0.05, 0.7, 5) {
		if got, want := ix.Count(q.X1, q.X2), len(point.TopK(pts, q.X1, q.X2, len(pts))); got != want {
			t.Fatalf("count [%v,%v]: %d want %d", q.X1, q.X2, got, want)
		}
	}
}

func TestFullRangeAllK(t *testing.T) {
	gen := workload.NewGen(8)
	pts := gen.Uniform(500, 1e4)
	ix := Bulk(newDisk(16), testOpts(), pts)
	for k := 1; k <= 520; k += 13 {
		checkTopK(t, ix, pts, point.Query{X1: math.Inf(-1), X2: math.Inf(1), K: k})
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
		for _, q := range gen.Queries(60, 1e5, 0.05, 0.5, 16) {
			if got, want := ix.Query(q.X1, q.X2, q.K), point.TopK(pts, q.X1, q.X2, q.K); !slices.Equal(got, want) {
				t.Fatalf("%s %+v:\n got %v\nwant %v", name, q, got, want)
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
		var live []point.P
		usedX := map[float64]bool{}
		for _, op := range ops {
			if op%4 != 0 || len(live) == 0 {
				p := point.P{X: float64(op) + rng.Float64(), Score: rng.Float64() * 1e6}
				if usedX[p.X] {
					continue
				}
				usedX[p.X] = true
				ix.Insert(p)
				live = append(live, p)
			} else {
				i := int(op/4) % len(live)
				p := live[i]
				delete(usedX, p.X)
				if !ix.Delete(p) {
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
		x2 := x1 + 25000
		for _, k := range []int{1, 3, int(abs%50) + 1, ix.KThreshold(), ix.KThreshold() + 10} {
			if !slices.Equal(ix.Query(x1, x2, k), point.TopK(live, x1, x2, k)) {
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
