package pst

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/em"
	"repro/internal/point"
)

func genPoints(n int, seed int64) []point.P {
	rng := rand.New(rand.NewSource(seed))
	xs := rng.Perm(n * 4)
	pts := make([]point.P, n)
	scores := rng.Perm(n * 4)
	for i := 0; i < n; i++ {
		pts[i] = point.P{X: float64(xs[i]), Score: float64(scores[i])}
	}
	return pts
}

func newDisk(b int) *em.Disk {
	return em.NewDisk(em.Config{B: b, M: 64 * b})
}

func sameSet(a, b []point.P) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[point.P]int, len(a))
	for _, p := range a {
		m[p]++
	}
	for _, p := range b {
		m[p]--
		if m[p] < 0 {
			return false
		}
	}
	return true
}

func TestEmpty(t *testing.T) {
	p := New(newDisk(16), Options{})
	if p.Len() != 0 || p.Height() != 0 {
		t.Fatalf("empty: %v", p)
	}
	if got := p.Query(0, 100, 5); got != nil {
		t.Fatalf("query on empty: %v", got)
	}
	if p.Delete(point.P{X: 1, Score: 1}) {
		t.Fatal("delete on empty succeeded")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkInvariants(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 100, 1000, 5000} {
		p := Bulk(newDisk(16), Options{TrackTokens: true}, genPoints(n, int64(n)))
		if p.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, p.Len())
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBulkQueryMatchesBrute(t *testing.T) {
	pts := genPoints(2000, 1)
	p := Bulk(newDisk(16), Options{}, pts)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		x1 := rng.Float64() * 8000
		x2 := x1 + rng.Float64()*4000
		k := rng.Intn(50) + 1
		got := p.Query(x1, x2, k)
		want := point.TopK(pts, x1, x2, k)
		if !sameSet(got, want) {
			t.Fatalf("query [%v,%v] k=%d: got %d pts, want %d", x1, x2, k, len(got), len(want))
		}
	}
}

func TestQueryReturnsSortedDesc(t *testing.T) {
	pts := genPoints(500, 3)
	p := Bulk(newDisk(16), Options{}, pts)
	got := p.Query(0, 2000, 40)
	for i := 1; i < len(got); i++ {
		if got[i-1].Score < got[i].Score {
			t.Fatal("not sorted by descending score")
		}
	}
}

func TestQueryFewerThanK(t *testing.T) {
	pts := genPoints(100, 4)
	p := Bulk(newDisk(16), Options{}, pts)
	got := p.QueryAll(-1e9, 1e9)
	if !sameSet(got, pts) {
		t.Fatalf("full-range query returned %d of %d", len(got), len(pts))
	}
}

func TestQueryEmptyRange(t *testing.T) {
	p := Bulk(newDisk(16), Options{}, genPoints(100, 5))
	if got := p.Query(5, 4, 10); got != nil {
		t.Fatalf("inverted range: %v", got)
	}
	if got := p.Query(-100, -50, 10); len(got) != 0 {
		t.Fatalf("out-of-domain range: %v", got)
	}
}

func TestInsertIncremental(t *testing.T) {
	pts := genPoints(800, 6)
	p := New(newDisk(16), Options{TrackTokens: true})
	for i, q := range pts {
		p.Insert(q)
		if i%97 == 0 {
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := p.QueryAll(-1e9, 1e9)
	if !sameSet(got, pts) {
		t.Fatalf("live set: %d of %d", len(got), len(pts))
	}
}

func TestReinsertAfterDelete(t *testing.T) {
	// Deletions leave x-coordinates in the base tree (§2); re-inserting
	// the same coordinate must reuse the stale entry.
	p := New(newDisk(16), Options{TrackTokens: true})
	q := point.P{X: 5, Score: 1}
	p.Insert(q)
	if !p.Delete(q) {
		t.Fatal("delete")
	}
	p.Insert(q)
	if p.Len() != 1 {
		t.Fatalf("len=%d", p.Len())
	}
	if got := p.Query(0, 10, 1); len(got) != 1 || got[0] != q {
		t.Fatalf("query: %v", got)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteBasic(t *testing.T) {
	pts := genPoints(600, 7)
	p := Bulk(newDisk(16), Options{TrackTokens: true}, pts)
	for i, q := range pts {
		if i%3 == 0 {
			if !p.Delete(q) {
				t.Fatalf("delete %v failed", q)
			}
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var want []point.P
	for i, q := range pts {
		if i%3 != 0 {
			want = append(want, q)
		}
	}
	if got := p.QueryAll(-1e9, 1e9); !sameSet(got, want) {
		t.Fatalf("after deletes: %d live, want %d", len(got), len(want))
	}
}

func TestDeleteNonexistent(t *testing.T) {
	pts := genPoints(100, 8)
	p := Bulk(newDisk(16), Options{}, pts)
	if p.Delete(point.P{X: -123, Score: 5}) {
		t.Fatal("deleted phantom point")
	}
	if p.Delete(point.P{X: pts[0].X, Score: pts[0].Score + 0.5}) {
		t.Fatal("deleted point with wrong score")
	}
	if p.Len() != 100 {
		t.Fatalf("len changed: %d", p.Len())
	}
}

func TestDeleteAll(t *testing.T) {
	pts := genPoints(300, 9)
	p := Bulk(newDisk(16), Options{TrackTokens: true}, pts)
	for _, q := range pts {
		if !p.Delete(q) {
			t.Fatalf("delete %v", q)
		}
	}
	if p.Len() != 0 {
		t.Fatalf("len=%d", p.Len())
	}
	if got := p.QueryAll(-1e9, 1e9); len(got) != 0 {
		t.Fatalf("ghosts: %v", got)
	}
}

func TestMixedWorkloadInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := New(newDisk(16), Options{TrackTokens: true})
	live := map[point.P]bool{}
	usedX := map[float64]bool{}
	for i := 0; i < 3000; i++ {
		if rng.Intn(3) > 0 || len(live) == 0 {
			q := point.P{X: rng.Float64() * 1e6, Score: rng.Float64() * 1e6}
			if usedX[q.X] {
				continue
			}
			usedX[q.X] = true
			live[q] = true
			p.Insert(q)
		} else {
			for q := range live {
				delete(live, q)
				delete(usedX, q.X)
				if !p.Delete(q) {
					t.Fatalf("delete live point failed at op %d", i)
				}
				break
			}
		}
		if i%251 == 0 {
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var want []point.P
	for q := range live {
		want = append(want, q)
	}
	if got := p.QueryAll(-1e9, 1e9); !sameSet(got, want) {
		t.Fatalf("live mismatch: %d vs %d", len(got), len(want))
	}
}

func TestMixedWorkloadQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := New(newDisk(16), Options{})
	var live []point.P
	usedX := map[float64]bool{}
	for i := 0; i < 2000; i++ {
		switch {
		case rng.Intn(4) > 0 || len(live) == 0:
			q := point.P{X: rng.Float64() * 1e4, Score: rng.Float64() * 1e6}
			if usedX[q.X] {
				continue
			}
			usedX[q.X] = true
			live = append(live, q)
			p.Insert(q)
		default:
			j := rng.Intn(len(live))
			q := live[j]
			live = append(live[:j], live[j+1:]...)
			delete(usedX, q.X)
			p.Delete(q)
		}
		if i%100 == 50 {
			x1 := rng.Float64() * 1e4
			x2 := x1 + rng.Float64()*3e3
			k := rng.Intn(20) + 1
			got := p.Query(x1, x2, k)
			want := point.TopK(live, x1, x2, k)
			if !sameSet(got, want) {
				t.Fatalf("op %d query [%v,%v] k=%d: got %d want %d", i, x1, x2, k, len(got), len(want))
			}
		}
	}
}

func TestSmallPhiCanFail(t *testing.T) {
	// E4 ablation sanity: with φ = 16 the query is exact on adversarial
	// data; this test pins the *correct* behaviour (the bench explores
	// failures at smaller φ).
	pts := genPoints(3000, 12)
	p := Bulk(newDisk(8), Options{Phi: 16}, pts)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 60; i++ {
		x1 := rng.Float64() * 12000
		x2 := x1 + rng.Float64()*6000
		k := rng.Intn(200) + 1
		got := p.Query(x1, x2, k)
		want := point.TopK(pts, x1, x2, k)
		if !sameSet(got, want) {
			t.Fatalf("phi=16 failed at query %d", i)
		}
	}
}

func TestSpaceLinear(t *testing.T) {
	d := newDisk(32)
	pts := genPoints(20000, 14)
	Bulk(d, Options{}, pts)
	live := d.Stats().BlocksLive
	// O(n/B) with a generous constant: points occupy 2n/B blocks in
	// pilots; tree metadata adds a constant factor.
	bound := int64(20 * 20000 / 32)
	if live > bound {
		t.Fatalf("space %d blocks > %d", live, bound)
	}
}

func TestUpdateIOCostLogarithmic(t *testing.T) {
	// The pool (32 frames) is big enough to hold a few node records but
	// far smaller than the structure, so the measurement reflects disk
	// traffic rather than cache hits.
	d := em.NewDisk(em.Config{B: 32, M: 32 * 32})
	p := New(d, Options{})
	pts := genPoints(4000, 15)
	for _, q := range pts[:2000] {
		p.Insert(q)
	}
	d.DropCache()
	base := d.Stats()
	for _, q := range pts[2000:] {
		p.Insert(q)
	}
	per := float64(d.Stats().Sub(base).IOs()) / 2000
	// Amortized O(log_B n): with height 2–3 and O(1)-block node records
	// the constant envelope below is loose but sub-linear growth is the
	// claim under test (the E2 bench sweeps n to show the shape).
	if per > 150 {
		t.Fatalf("amortized insert cost %.1f I/Os looks super-logarithmic", per)
	}
	t.Logf("amortized insert: %.1f I/Os", per)
}

func TestQueryIOCostScalesWithK(t *testing.T) {
	// Parameters are chosen so the heap selection does not exhaust the
	// query range: the selection budget t = φ(lg n + k/B) must stay
	// below the number of non-empty pilot nodes in range, otherwise both
	// measurements read the whole range and the k-dependence vanishes
	// (k ≫ B lg n is exactly the regime §2 targets).
	d := em.NewDisk(em.Config{B: 8, M: 64 * 8})
	pts := genPoints(50000, 16)
	p := Bulk(d, Options{}, pts)
	cost := func(k int) float64 {
		const reps = 5
		d.DropCache()
		base := d.Stats()
		for i := 0; i < reps; i++ {
			p.Query(math.Inf(-1), math.Inf(1), k)
			d.DropCache()
		}
		return float64(d.Stats().Sub(base).Reads) / reps
	}
	c1, c2 := cost(8), cost(4096)
	// k=4096 (k/B = 512 ≫ lg n) must cost visibly more than k=8, but at
	// most ~linearly in k/B.
	if c2 < 1.2*c1 {
		t.Fatalf("cost not increasing in k: %v vs %v", c1, c2)
	}
	if c2 > 200*c1 {
		t.Fatalf("cost ratio too steep: %v vs %v", c1, c2)
	}
	t.Logf("query I/Os: k=8 → %.0f, k=4096 → %.0f", c1, c2)
}

func TestGlobalRebuildKeepsAnswers(t *testing.T) {
	p := New(newDisk(16), Options{TrackTokens: true})
	pts := genPoints(64, 17)
	for _, q := range pts {
		p.Insert(q)
	}
	// Force many updates to trip global rebuilding repeatedly.
	for round := 0; round < 10; round++ {
		for _, q := range pts {
			p.Delete(q)
		}
		for _, q := range pts {
			p.Insert(q)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := p.QueryAll(-1e9, 1e9); !sameSet(got, pts) {
		t.Fatalf("after rebuild churn: %d live", len(got))
	}
}

func TestBoundaryQueries(t *testing.T) {
	var pts []point.P
	for i := 0; i < 64; i++ {
		pts = append(pts, point.P{X: float64(i), Score: float64(100 + i)})
	}
	p := Bulk(newDisk(8), Options{}, pts)
	cases := []struct {
		x1, x2 float64
		k      int
		want   int
	}{
		{0, 63, 64, 64}, {0, 0, 5, 1}, {63, 63, 5, 1},
		{31.5, 31.6, 3, 0}, {10, 20, 100, 11}, {-5, 5, 3, 3},
	}
	for _, c := range cases {
		got := p.Query(c.x1, c.x2, c.k)
		if len(got) != c.want {
			t.Errorf("query [%v,%v] k=%d: %d points, want %d", c.x1, c.x2, c.k, len(got), c.want)
		}
		want := point.TopK(pts, c.x1, c.x2, c.k)
		if !sameSet(got, want) {
			t.Errorf("query [%v,%v] k=%d wrong set", c.x1, c.x2, c.k)
		}
	}
}

func TestVariousBlockSizes(t *testing.T) {
	for _, b := range []int{8, 16, 64} {
		pts := genPoints(700, int64(b))
		p := Bulk(newDisk(b), Options{TrackTokens: true}, pts)
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("B=%d: %v", b, err)
		}
		got := p.Query(0, 1400, 25)
		want := point.TopK(pts, 0, 1400, 25)
		if !sameSet(got, want) {
			t.Fatalf("B=%d query mismatch", b)
		}
	}
}

// Property: any insert/delete interleaving preserves invariants and
// query answers.
func TestQuickPSTModel(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		if len(ops) > 150 {
			ops = ops[:150]
		}
		rng := rand.New(rand.NewSource(seed))
		p := New(newDisk(8), Options{TrackTokens: true})
		var live []point.P
		usedX := map[float64]bool{}
		for _, op := range ops {
			if op%4 != 0 || len(live) == 0 {
				q := point.P{X: float64(op) + rng.Float64(), Score: rng.Float64() * 1e6}
				if usedX[q.X] {
					continue
				}
				usedX[q.X] = true
				live = append(live, q)
				p.Insert(q)
			} else {
				j := int(op/4) % len(live)
				q := live[j]
				live = append(live[:j], live[j+1:]...)
				delete(usedX, q.X)
				if !p.Delete(q) {
					return false
				}
			}
		}
		if p.CheckInvariants() != nil {
			return false
		}
		abs := seed
		if abs < 0 {
			abs = -abs
		}
		x1 := float64(abs % 300)
		x2 := x1 + 200
		k := int(abs%7) + 1
		return sameSet(p.Query(x1, x2, k), point.TopK(live, x1, x2, k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeAndExtremeCoordinates(t *testing.T) {
	pts := []point.P{
		{X: -1e12, Score: 5}, {X: -3, Score: 9}, {X: 0, Score: 1},
		{X: 2.5, Score: 7}, {X: 1e12, Score: 3},
	}
	p := Bulk(newDisk(8), Options{}, pts)
	got := p.Query(math.Inf(-1), math.Inf(1), 3)
	want := point.TopK(pts, math.Inf(-1), math.Inf(1), 3)
	if !sameSet(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func BenchmarkPSTInsert(b *testing.B) {
	d := em.NewDisk(em.Config{B: 64, M: 64 * 64})
	p := New(d, Options{})
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Insert(point.P{X: rng.Float64() * 1e9, Score: rng.Float64()})
	}
}

func BenchmarkPSTQueryK64(b *testing.B) {
	d := em.NewDisk(em.Config{B: 64, M: 64 * 64})
	p := Bulk(d, Options{}, genPoints(50000, 1))
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x1 := rng.Float64() * 1e5
		p.Query(x1, x1+2e4, 64)
	}
}

// TestQueryReadsRepeat: one query, repeated from a dropped cache on a
// pool far smaller than the blocks it touches, reads the same number
// of blocks every time. The order of Query's block reads decides the
// pool's hits and misses, so it must not depend on map iteration.
func TestQueryReadsRepeat(t *testing.T) {
	d := em.NewDisk(em.Config{B: 16, M: 8 * 16})
	p := Bulk(d, Options{}, genPoints(5000, 3))
	var first int64
	for i := 0; i < 30; i++ {
		d.DropCache()
		before := d.Stats()
		p.Query(1000, 15000, 100)
		reads := d.Stats().Sub(before).Reads
		if i == 0 {
			first = reads
		} else if reads != first {
			t.Fatalf("repeat %d read %d blocks, the first run %d", i, reads, first)
		}
	}
}

// TestLeafPilotMayExceedTwoB: with PilotB below Branch/2, a T leaf keeps
// more than 2·PilotB points. A root leaf built over n ≤ Branch/2 points
// reaches weight Branch+1 within the inserts before its global rebuild,
// and every point it holds stays in its pilot; the insert that
// overfills it must not try to push down out of the leaf.
func TestLeafPilotMayExceedTwoB(t *testing.T) {
	for _, o := range []Options{{PilotB: 4}, {PilotB: 4, Branch: 8}} {
		for n := 1; n <= 8; n++ {
			pts := genPoints(n+12, int64(n))
			p := Bulk(newDisk(16), o, pts[:n])
			for _, q := range pts[n:] {
				p.Insert(q)
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("%+v n=%d: %v", o, n, err)
			}
			if !sameSet(p.Live(), pts) {
				t.Fatalf("%+v n=%d: %d live points, want %d", o, n, len(p.Live()), len(pts))
			}
		}
	}
}
