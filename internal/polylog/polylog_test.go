package polylog

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/em"
	"repro/internal/point"
)

func newDisk(b int) *em.Disk { return em.NewDisk(em.Config{B: b, M: 64 * b}) }

func genPoints(n int, seed int64) []point.P {
	rng := rand.New(rand.NewSource(seed))
	xs := rng.Perm(n * 4)
	scores := rng.Perm(n * 4)
	pts := make([]point.P, n)
	for i := 0; i < n; i++ {
		pts[i] = point.P{X: float64(xs[i]), Score: float64(scores[i])}
	}
	return pts
}

// rankIn computes |{p ∈ pts ∩ q : score ≥ τ}|.
func rankIn(pts []point.P, x1, x2, tau float64) int {
	r := 0
	for _, p := range pts {
		if p.In(x1, x2) && p.Score >= tau {
			r++
		}
	}
	return r
}

// smallOpts keeps trees several levels deep at test scale.
func smallOpts(l int) Options {
	return Options{L: l, F: 4, LeafCap: 32}
}

func TestEmpty(t *testing.T) {
	tr := New(newDisk(32), smallOpts(8))
	if tr.Len() != 0 {
		t.Fatal("not empty")
	}
	if _, ok := tr.SelectApprox(0, 10, 1); ok {
		t.Fatal("select on empty")
	}
	if tr.Delete(point.P{X: 1, Score: 1}) {
		t.Fatal("phantom delete")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertInvariants(t *testing.T) {
	tr := New(newDisk(32), smallOpts(8))
	pts := genPoints(600, 1)
	for i, p := range pts {
		tr.Insert(p)
		if i%89 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 600 {
		t.Fatalf("len=%d", tr.Len())
	}
}

func TestSelectApproxGuarantee(t *testing.T) {
	pts := genPoints(1200, 2)
	tr := bulk(newDisk(32), smallOpts(16), pts)
	rng := rand.New(rand.NewSource(3))
	bound := tr.SelectBound()
	for i := 0; i < 150; i++ {
		x1 := rng.Float64() * 4800
		x2 := x1 + rng.Float64()*3000
		k := rng.Intn(16) + 1
		tau, ok := tr.SelectApprox(x1, x2, k)
		inRange := rankIn(pts, x1, x2, -1e18)
		if !ok {
			if inRange >= k {
				t.Fatalf("query %d: select failed with %d in range ≥ k=%d", i, inRange, k)
			}
			continue
		}
		r := rankIn(pts, x1, x2, tau)
		// The fallback path can widen the bound by the number of small
		// pieces; allow bound + O(lg n) pieces × k.
		loose := (bound + 12) * k
		if r < k || r > loose {
			t.Fatalf("query %d [%v,%v] k=%d: rank %d outside [%d,%d]", i, x1, x2, k, r, k, loose)
		}
	}
}

func TestCount(t *testing.T) {
	pts := genPoints(800, 4)
	tr := bulk(newDisk(32), smallOpts(8), pts)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		x1 := rng.Float64() * 3200
		x2 := x1 + rng.Float64()*1600
		want := 0
		for _, p := range pts {
			if p.In(x1, x2) {
				want++
			}
		}
		if got := tr.Count(x1, x2); got != want {
			t.Fatalf("count [%v,%v]=%d want %d", x1, x2, got, want)
		}
	}
}

func TestDeleteInvariants(t *testing.T) {
	pts := genPoints(500, 6)
	tr := bulk(newDisk(32), smallOpts(8), pts)
	for i, p := range pts {
		if i%2 == 0 {
			if !tr.Delete(p) {
				t.Fatalf("delete %v", p)
			}
		}
		if i%101 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d ops: %v", i, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 250 {
		t.Fatalf("len=%d", tr.Len())
	}
}

func TestDeleteNonexistent(t *testing.T) {
	pts := genPoints(100, 7)
	tr := bulk(newDisk(32), smallOpts(8), pts)
	if tr.Delete(point.P{X: -5, Score: 3}) {
		t.Fatal("phantom delete")
	}
	if tr.Delete(point.P{X: pts[0].X, Score: pts[0].Score + 1}) {
		t.Fatal("wrong-score delete")
	}
}

func TestSelectAfterChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr := New(newDisk(32), smallOpts(12))
	var live []point.P
	usedX := map[float64]bool{}
	for op := 0; op < 1500; op++ {
		if rng.Intn(3) > 0 || len(live) == 0 {
			p := point.P{X: rng.Float64() * 1e4, Score: rng.Float64() * 1e6}
			if usedX[p.X] {
				continue
			}
			usedX[p.X] = true
			live = append(live, p)
			tr.Insert(p)
		} else {
			j := rng.Intn(len(live))
			p := live[j]
			live = append(live[:j], live[j+1:]...)
			delete(usedX, p.X)
			if !tr.Delete(p) {
				t.Fatalf("op %d: delete failed", op)
			}
		}
		if op%150 == 75 {
			x1 := rng.Float64() * 1e4
			x2 := x1 + rng.Float64()*4e3
			k := rng.Intn(12) + 1
			tau, ok := tr.SelectApprox(x1, x2, k)
			inRange := rankIn(live, x1, x2, -1e18)
			if !ok {
				if inRange >= k {
					t.Fatalf("op %d: select failed, %d ≥ k", op, inRange)
				}
				continue
			}
			r := rankIn(live, x1, x2, tau)
			if r < k || r > (tr.SelectBound()+12)*k {
				t.Fatalf("op %d: rank %d for k=%d", op, r, k)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInRegimeNoFallback(t *testing.T) {
	// With a leaf capacity far above c2·l·c1, every canonical multi-slab
	// is large and the AURS fast path must serve every query.
	pts := genPoints(4000, 9)
	tr := bulk(newDisk(64), Options{L: 4, F: 4, LeafCap: 400}, pts)
	rng := rand.New(rand.NewSource(10))
	tr.Fallbacks = 0
	for i := 0; i < 100; i++ {
		x1 := rng.Float64() * 4000
		x2 := x1 + 4000 + rng.Float64()*8000
		k := rng.Intn(4) + 1
		if _, ok := tr.SelectApprox(x1, x2, k); !ok {
			continue
		}
	}
	if tr.Fallbacks > 0 {
		t.Fatalf("fallback fired %d times in-regime", tr.Fallbacks)
	}
}

func TestSelectIOCost(t *testing.T) {
	d := newDisk(64)
	pts := genPoints(4000, 11)
	tr := bulk(d, Options{L: 4, F: 4, LeafCap: 400}, pts)
	d.DropCache()
	base := d.Stats()
	const queries = 20
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < queries; i++ {
		x1 := rng.Float64() * 4000
		tr.SelectApprox(x1, x1+8000, 4)
		d.DropCache()
	}
	per := float64(d.Stats().Sub(base).Reads) / queries
	// O(log_B n) with modest constants: the decomposition touches O(lg_f n)
	// nodes, each probed O(1) times by AURS.
	if per > 400 {
		t.Fatalf("select cost %.1f reads looks super-logarithmic", per)
	}
	t.Logf("select cost: %.1f reads", per)
}

func TestUpdateIOCost(t *testing.T) {
	d := newDisk(64)
	tr := New(d, Options{L: 4, F: 4, LeafCap: 400})
	pts := genPoints(3000, 13)
	for _, p := range pts[:1500] {
		tr.Insert(p)
	}
	d.DropCache()
	base := d.Stats()
	for _, p := range pts[1500:] {
		tr.Insert(p)
	}
	per := float64(d.Stats().Sub(base).IOs()) / 1500
	if per > 250 {
		t.Fatalf("amortized insert %.1f I/Os", per)
	}
	t.Logf("amortized insert: %.1f I/Os", per)
}

func TestQuickPolylogModel(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		if len(ops) > 100 {
			ops = ops[:100]
		}
		rng := rand.New(rand.NewSource(seed))
		tr := New(newDisk(32), Options{L: 6, F: 3, LeafCap: 16})
		var live []point.P
		usedX := map[float64]bool{}
		for _, op := range ops {
			if op%4 != 0 || len(live) == 0 {
				p := point.P{X: float64(op) + rng.Float64(), Score: rng.Float64() * 1e6}
				if usedX[p.X] {
					continue
				}
				usedX[p.X] = true
				live = append(live, p)
				tr.Insert(p)
			} else {
				j := int(op/4) % len(live)
				p := live[j]
				live = append(live[:j], live[j+1:]...)
				delete(usedX, p.X)
				if !tr.Delete(p) {
					return false
				}
			}
		}
		if tr.CheckInvariants() != nil {
			return false
		}
		if len(live) == 0 {
			return true
		}
		abs := seed
		if abs < 0 {
			abs = -abs
		}
		x1 := float64(abs % 30000)
		x2 := x1 + 25000
		k := int(abs%6) + 1
		tau, ok := tr.SelectApprox(x1, x2, k)
		inRange := rankIn(live, x1, x2, -1e18)
		if !ok {
			return inRange < k
		}
		r := rankIn(live, x1, x2, tau)
		return r >= k && r <= (tr.SelectBound()+12)*k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLiveMatches(t *testing.T) {
	pts := genPoints(400, 14)
	tr := bulk(newDisk(32), smallOpts(8), pts)
	live := tr.Live()
	if len(live) != len(pts) {
		t.Fatalf("live %d want %d", len(live), len(pts))
	}
	point.SortByX(live)
	want := append([]point.P(nil), pts...)
	point.SortByX(want)
	for i := range want {
		if live[i] != want[i] {
			t.Fatalf("entry %d: %v want %v", i, live[i], want[i])
		}
	}
	_ = sort.Float64s
}

func BenchmarkPolylogInsert(b *testing.B) {
	d := em.NewDisk(em.Config{B: 64, M: 64 * 64})
	tr := New(d, Options{L: 8, F: 4, LeafCap: 400})
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(point.P{X: rng.Float64() * 1e9, Score: rng.Float64()})
	}
}

func BenchmarkPolylogSelect(b *testing.B) {
	d := em.NewDisk(em.Config{B: 64, M: 64 * 64})
	tr := bulk(d, Options{L: 8, F: 4, LeafCap: 400}, genPoints(10000, 1))
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x1 := rng.Float64() * 2e4
		tr.SelectApprox(x1, x1+2e4, 8)
	}
}

// TestWarmSelectAllocatesNothing: with the tree's query scratch grown,
// SelectApprox and Count allocate nothing, both on the AURS fast path
// (multi-slabs) and when the degenerate-regime fallbacks fire.
func TestWarmSelectAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name      string
		opt       Options
		x1, x2    float64
		k         int
		fallbacks bool
	}{
		{"in regime", Options{L: 4, F: 4, LeafCap: 400}, 1000, 14000, 3, false},
		{"fallbacks", smallOpts(8), 2000, 2900, 8, true},
	} {
		tr := bulk(newDisk(64), tc.opt, genPoints(4000, 13))
		tr.Fallbacks = 0
		if _, ok := tr.SelectApprox(tc.x1, tc.x2, tc.k); !ok {
			t.Fatalf("%s: selection found fewer than k points", tc.name)
		}
		if len(tr.qs.slabs) == 0 {
			t.Fatalf("%s: the query reached no multi-slab; it does not test the AURS path", tc.name)
		}
		if fired := tr.Fallbacks > 0; fired != tc.fallbacks {
			t.Fatalf("%s: fallbacks fired %d times", tc.name, tr.Fallbacks)
		}
		if allocs := testing.AllocsPerRun(20, func() { tr.SelectApprox(tc.x1, tc.x2, tc.k) }); allocs != 0 {
			t.Errorf("%s: warm SelectApprox allocates %.1f/op", tc.name, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { tr.Count(tc.x1, tc.x2) }); allocs != 0 {
			t.Errorf("%s: Count allocates %.1f/op", tc.name, allocs)
		}
	}
}
