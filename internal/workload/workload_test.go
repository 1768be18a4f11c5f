package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUniformDistinct(t *testing.T) {
	g := NewGen(1)
	pts := g.Uniform(5000, 1e6)
	xs := map[float64]bool{}
	ss := map[float64]bool{}
	for _, p := range pts {
		if xs[p.X] || ss[p.Score] {
			t.Fatal("duplicate coordinate")
		}
		xs[p.X] = true
		ss[p.Score] = true
		if p.X < 0 || p.X >= 1e6 || p.Score < 0 || p.Score >= 1 {
			t.Fatalf("out of range: %v", p)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := NewGen(42).Uniform(100, 1e3)
	b := NewGen(42).Uniform(100, 1e3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewGen(43).Uniform(100, 1e3)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestClusteredIsClustered(t *testing.T) {
	g := NewGen(2)
	pts := g.Clustered(4000, 4, 1e6)
	// Measure dispersion: clustered data has most mass in a few narrow
	// bands; count occupied 1%-width buckets.
	occupied := map[int]bool{}
	for _, p := range pts {
		occupied[int(p.X/1e4)] = true
	}
	if len(occupied) > 60 {
		t.Fatalf("%d of 100 buckets occupied — not clustered", len(occupied))
	}
}

func TestCorrelatedSign(t *testing.T) {
	g := NewGen(3)
	corr := func(rho float64) float64 {
		pts := g.Correlated(4000, 1e6, rho)
		var sx, sy, sxy, sxx, syy float64
		n := float64(len(pts))
		for _, p := range pts {
			sx += p.X
			sy += p.Score
			sxy += p.X * p.Score
			sxx += p.X * p.X
			syy += p.Score * p.Score
		}
		return (n*sxy - sx*sy) / math.Sqrt((n*sxx-sx*sx)*(n*syy-sy*sy))
	}
	if c := corr(0.9); c < 0.5 {
		t.Fatalf("rho=0.9 gave sample correlation %.2f", c)
	}
	if c := corr(-0.9); c > -0.5 {
		t.Fatalf("rho=-0.9 gave sample correlation %.2f", c)
	}
}

func TestHotelsShape(t *testing.T) {
	g := NewGen(4)
	hs, pts := g.Hotels(2000)
	if len(hs) != len(pts) {
		t.Fatal("length mismatch")
	}
	for i, h := range hs {
		if h.Price != pts[i].X || h.Rating != pts[i].Score {
			t.Fatal("hotel/point mismatch")
		}
		if h.Price <= 0 || h.Rating < 0 || h.Rating >= 10 {
			t.Fatalf("implausible hotel %+v", h)
		}
	}
}

func TestEventsMonotoneTime(t *testing.T) {
	g := NewGen(5)
	es, _ := g.Events(3000)
	for i := 1; i < len(es); i++ {
		if es[i].Timestamp <= es[i-1].Timestamp {
			t.Fatal("timestamps not increasing")
		}
	}
}

func TestQueriesWithinDomain(t *testing.T) {
	g := NewGen(6)
	for _, q := range g.Queries(500, 1e4, 0.01, 0.5, 32) {
		if q.X1 < 0 || q.X2 > 1e4 || q.X1 > q.X2 {
			t.Fatalf("bad query %+v", q)
		}
		if q.K < 1 || q.K > 32 {
			t.Fatalf("bad k %d", q.K)
		}
		sel := (q.X2 - q.X1) / 1e4
		if sel < 0.0099 || sel > 0.51 {
			t.Fatalf("selectivity %v outside [0.01,0.5]", sel)
		}
	}
}

func TestMixKeepsLiveSizeSteady(t *testing.T) {
	g := NewGen(7)
	ups := g.Mix(5000, 500, 0.5, 1e6)
	live := 0
	peak := 0
	for _, u := range ups {
		if !u.Delete {
			live++
		} else {
			live--
		}
		if live > peak {
			peak = live
		}
		if live < 0 {
			t.Fatal("deleted more than inserted")
		}
	}
	if peak > 1500 {
		t.Fatalf("live size drifted to %d with warm=500", peak)
	}
}

func TestMixDeletesOnlyLivePoints(t *testing.T) {
	g := NewGen(8)
	live := map[float64]bool{}
	for _, u := range g.Mix(3000, 200, 0.5, 1e6) {
		if !u.Delete {
			live[u.X] = true
		} else {
			if !live[u.X] {
				t.Fatal("delete of never-inserted point")
			}
			delete(live, u.X)
		}
	}
}

func TestAdversarialDescendingScores(t *testing.T) {
	g := NewGen(9)
	pts := g.Adversarial(1000, 1e5)
	// Scores trend downward with the stream index.
	worse := 0
	for i := 1; i < len(pts); i++ {
		if pts[i].Score < pts[i-1].Score {
			worse++
		}
	}
	if worse < 900 {
		t.Fatalf("only %d/999 descending steps", worse)
	}
}

// Property: every generator yields distinct coordinates, whatever the
// seed and size.
func TestQuickAllGeneratorsDistinct(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		g := NewGen(seed)
		var all []struct{ x, s float64 }
		add := func(xs []float64, ss []float64) {
			for i := range xs {
				all = append(all, struct{ x, s float64 }{xs[i], ss[i]})
			}
		}
		for _, pts := range [][]struct{ X, Score float64 }{} {
			_ = pts
		}
		for _, p := range g.Uniform(n, 1e6) {
			add([]float64{p.X}, []float64{p.Score})
		}
		for _, p := range g.Clustered(n, 3, 1e6) {
			add([]float64{p.X}, []float64{p.Score})
		}
		xs := map[float64]bool{}
		ss := map[float64]bool{}
		for _, e := range all {
			if xs[e.x] || ss[e.s] {
				return false
			}
			xs[e.x] = true
			ss[e.s] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
