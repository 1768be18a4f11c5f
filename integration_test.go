package topk

// Cross-module integration tests: the four top-k-capable structures
// (the §2 PST, the §3.3 polylog composition through core, the [14]
// baseline, and the RAM pointer-machine baseline) are run side by side
// on shared workloads and must agree with each other and with the
// brute-force oracle, across every workload shape the generators
// produce and across block sizes.

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/em"
	"repro/internal/point"
	"repro/internal/pst"
	"repro/internal/ram"
	"repro/internal/shengtao"
	"repro/internal/verify"
	"repro/internal/workload"
)

type engine struct {
	name   string
	insert func(point.P)
	delete func(point.P) bool
	query  func(x1, x2 float64, k int) []point.P
	maxK   int // 0 = unlimited
}

func allEngines(b int) []engine {
	d1 := em.NewDisk(em.Config{B: b, M: 64 * b})
	p := pst.New(d1, pst.Options{TrackTokens: true})
	d2 := em.NewDisk(em.Config{B: b, M: 64 * b})
	ix := core.New(d2, core.Options{Regime: core.RegimePolylog, PolylogF: 4, PolylogLeafCap: 64})
	d3 := em.NewDisk(em.Config{B: b, M: 64 * b})
	st := shengtao.New(d3, shengtao.Options{K: 64})
	rm := &ram.Tree{}
	// core.Insert returns errors under the v1 contract; the shared
	// workload is duplicate-free, so any error is a test failure.
	coreInsert := func(p point.P) {
		if err := ix.Insert(p); err != nil {
			panic(err)
		}
	}
	return []engine{
		{"pst", p.Insert, p.Delete, p.Query, 0},
		{"core", coreInsert, ix.Delete, ix.Query, 0},
		{"shengtao", st.Insert, st.Delete, st.Query, 64},
		{"ram", rm.Insert, rm.Delete, rm.Query, 0},
	}
}

func runSharedWorkload(t *testing.T, b int, pts []point.P, seed int64) {
	t.Helper()
	engines := allEngines(b)
	oracle := verify.NewOracle(nil)
	rng := rand.New(rand.NewSource(seed))

	for i, p := range pts {
		for _, e := range engines {
			e.insert(p)
		}
		oracle.Insert(p)
		// Interleave deletions.
		if i%3 == 2 && oracle.Len() > 10 {
			victim := oracle.Live()[rng.Intn(oracle.Len())]
			oracle.Delete(victim)
			for _, e := range engines {
				if !e.delete(victim) {
					t.Fatalf("%s: delete of live point failed at op %d", e.name, i)
				}
			}
		}
		if i%67 == 33 {
			x1 := rng.Float64() * 1e6
			x2 := x1 + rng.Float64()*5e5
			k := rng.Intn(40) + 1
			want := oracle.TopK(x1, x2, k)
			for _, e := range engines {
				if e.maxK > 0 && k > e.maxK {
					continue
				}
				got := e.query(x1, x2, k)
				if err := verify.DiffTopK(got, want); err != nil {
					t.Fatalf("%s at op %d, query [%v,%v] k=%d: %v", e.name, i, x1, x2, k, err)
				}
			}
		}
	}
}

func TestIntegrationUniform(t *testing.T) {
	gen := workload.NewGen(100)
	runSharedWorkload(t, 16, gen.Uniform(1200, 1e6), 101)
}

func TestIntegrationClustered(t *testing.T) {
	gen := workload.NewGen(102)
	runSharedWorkload(t, 16, gen.Clustered(1200, 5, 1e6), 103)
}

func TestIntegrationCorrelated(t *testing.T) {
	gen := workload.NewGen(104)
	runSharedWorkload(t, 16, gen.Correlated(1200, 1e6, 0.9), 105)
}

func TestIntegrationAdversarial(t *testing.T) {
	gen := workload.NewGen(106)
	pts := gen.Adversarial(1200, 1e6)
	runSharedWorkload(t, 16, pts, 107)
}

func TestIntegrationSmallBlocks(t *testing.T) {
	gen := workload.NewGen(108)
	runSharedWorkload(t, 8, gen.Uniform(800, 1e6), 109)
}

func TestIntegrationLargeBlocks(t *testing.T) {
	gen := workload.NewGen(110)
	runSharedWorkload(t, 128, gen.Uniform(1500, 1e6), 111)
}

// TestIntegrationHotelScenario drives the §1 motivating example through
// the public API end to end.
func TestIntegrationHotelScenario(t *testing.T) {
	gen := workload.NewGen(112)
	hotels, pts := gen.Hotels(3000)
	idx := mustLoad(t, Config{BlockWords: 32, ForcePolylog: true, PolylogF: 4, PolylogLeafCap: 128}, pts)
	oracle := verify.NewOracle(pts)

	got := idx.TopK(100, 200, 10)
	want := oracle.TopK(100, 200, 10)
	if err := verify.DiffTopK(got, want); err != nil {
		t.Fatalf("hotel query: %v", err)
	}

	// Reprice 500 hotels and re-verify.
	for i := 0; i < 500; i++ {
		h := hotels[i]
		old := point.P{X: h.Price, Score: h.Rating}
		idx.Delete(old.X, old.Score)
		oracle.Delete(old)
		np := point.P{X: h.Price + 1e-7, Score: h.Rating}
		mustInsert(t, idx, np.X, np.Score)
		oracle.Insert(np)
	}
	for _, band := range [][2]float64{{50, 90}, {100, 200}, {140, 400}} {
		got := idx.TopK(band[0], band[1], 10)
		if err := verify.DiffTopK(got, oracle.TopK(band[0], band[1], 10)); err != nil {
			t.Fatalf("band %v after repricing: %v", band, err)
		}
	}
}

// TestIntegrationEventWindow replays the sliding-window scenario and
// verifies window queries against the oracle.
func TestIntegrationEventWindow(t *testing.T) {
	gen := workload.NewGen(113)
	_, pts := gen.Events(4000)
	const window = 1500
	idx := mustNew(t, Config{BlockWords: 32, ForcePolylog: true, PolylogF: 4, PolylogLeafCap: 128})
	oracle := verify.NewOracle(nil)
	for i, p := range pts {
		mustInsert(t, idx, p.X, p.Score)
		oracle.Insert(p)
		if i >= window {
			old := pts[i-window]
			idx.Delete(old.X, old.Score)
			oracle.Delete(old)
		}
		if i%500 == 499 {
			now := p.X
			got := idx.TopK(now-100, now, 8)
			if err := verify.DiffTopK(got, oracle.TopK(now-100, now, 8)); err != nil {
				t.Fatalf("window query at event %d: %v", i, err)
			}
		}
	}
	if idx.Len() != oracle.Len() {
		t.Fatalf("len %d vs %d", idx.Len(), oracle.Len())
	}
}

// TestIntegrationAdaptiveEndToEnd: the adaptive PST option composed into
// core answers identically on a shared stream.
func TestIntegrationAdaptiveEndToEnd(t *testing.T) {
	gen := workload.NewGen(114)
	pts := gen.Uniform(2000, 1e6)
	d1 := em.NewDisk(em.Config{B: 32, M: 64 * 32})
	plain := core.Bulk(d1, core.Options{Regime: core.RegimePolylog, PolylogF: 4, PolylogLeafCap: 64}, pts)
	d2 := em.NewDisk(em.Config{B: 32, M: 64 * 32})
	adaptive := core.Bulk(d2, core.Options{
		Regime: core.RegimePolylog, PolylogF: 4, PolylogLeafCap: 64,
		PST: pst.Options{Adaptive: true},
	}, pts)
	rng := rand.New(rand.NewSource(115))
	for i := 0; i < 80; i++ {
		x1 := rng.Float64() * 1e6
		x2 := x1 + rng.Float64()*4e5
		k := rng.Intn(600) + 1
		a := plain.Query(x1, x2, k)
		b := adaptive.Query(x1, x2, k)
		if !verify.SameSet(a, b) {
			t.Fatalf("adaptive diverged at query %d (k=%d): %d vs %d", i, k, len(b), len(a))
		}
	}
}
