package btree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/em"
)

func newTestTree(b int) *Tree {
	d := em.NewDisk(em.Config{B: b, M: 8 * b})
	return New(d, "t")
}

func fill(t *testing.T, tr *Tree, keys []float64) {
	t.Helper()
	for _, k := range keys {
		tr.Insert(k)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after fill: %v", err)
	}
}

func permutedInts(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	ks := make([]float64, n)
	for i := range ks {
		ks[i] = float64(i)
	}
	rng.Shuffle(n, func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	return ks
}

func TestEmptyTree(t *testing.T) {
	tr := newTestTree(16)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("empty: len=%d h=%d", tr.Len(), tr.Height())
	}
	if _, ok := tr.Max(); ok {
		t.Fatal("Max on empty")
	}
	if _, ok := tr.Min(); ok {
		t.Fatal("Min on empty")
	}
	if _, ok := tr.SelectDesc(1); ok {
		t.Fatal("SelectDesc on empty")
	}
	if tr.Contains(3) {
		t.Fatal("Contains on empty")
	}
	if tr.Delete(3) {
		t.Fatal("Delete on empty")
	}
}

func TestInsertContains(t *testing.T) {
	tr := newTestTree(16)
	fill(t, tr, permutedInts(500, 1))
	for i := 0; i < 500; i++ {
		if !tr.Contains(float64(i)) {
			t.Fatalf("missing %d", i)
		}
	}
	if tr.Contains(500) || tr.Contains(-1) || tr.Contains(3.5) {
		t.Fatal("phantom key")
	}
	if tr.Len() != 500 {
		t.Fatalf("len=%d", tr.Len())
	}
}

func TestDuplicateInsertPanics(t *testing.T) {
	tr := newTestTree(16)
	tr.Insert(7)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate insert did not panic")
		}
	}()
	tr.Insert(7)
}

func TestMinMax(t *testing.T) {
	tr := newTestTree(8)
	fill(t, tr, permutedInts(300, 2))
	if mx, _ := tr.Max(); mx != 299 {
		t.Fatalf("max=%v", mx)
	}
	if mn, _ := tr.Min(); mn != 0 {
		t.Fatalf("min=%v", mn)
	}
}

func TestRankDesc(t *testing.T) {
	tr := newTestTree(16)
	fill(t, tr, permutedInts(100, 3))
	for i := 0; i < 100; i++ {
		want := 100 - i // |{e >= i}| among 0..99
		if got := tr.RankDesc(float64(i)); got != want {
			t.Fatalf("RankDesc(%d)=%d, want %d", i, got, want)
		}
	}
	if got := tr.RankDesc(98.5); got != 1 {
		t.Fatalf("RankDesc(98.5)=%d", got)
	}
	if got := tr.RankDesc(99.5); got != 0 {
		t.Fatalf("RankDesc(99.5)=%d", got)
	}
	if got := tr.RankDesc(1000); got != 0 {
		t.Fatalf("RankDesc(1000)=%d", got)
	}
	if got := tr.RankDesc(-5); got != 100 {
		t.Fatalf("RankDesc(-5)=%d", got)
	}
}

func TestSelectDesc(t *testing.T) {
	tr := newTestTree(16)
	fill(t, tr, permutedInts(128, 4))
	for r := 1; r <= 128; r++ {
		k, ok := tr.SelectDesc(r)
		if !ok || k != float64(128-r) {
			t.Fatalf("SelectDesc(%d)=%v,%v", r, k, ok)
		}
	}
	if _, ok := tr.SelectDesc(0); ok {
		t.Fatal("rank 0 accepted")
	}
	if _, ok := tr.SelectDesc(129); ok {
		t.Fatal("rank beyond n accepted")
	}
}

func TestRankSelectInverse(t *testing.T) {
	tr := newTestTree(16)
	rng := rand.New(rand.NewSource(5))
	seen := map[float64]bool{}
	for len(seen) < 400 {
		k := rng.Float64() * 1e6
		if !seen[k] {
			seen[k] = true
			tr.Insert(k)
		}
	}
	for r := 1; r <= tr.Len(); r += 7 {
		k, ok := tr.SelectDesc(r)
		if !ok {
			t.Fatalf("select %d failed", r)
		}
		if got := tr.RankDesc(k); got != r {
			t.Fatalf("rank(select(%d))=%d", r, got)
		}
	}
}

func TestDeleteHalf(t *testing.T) {
	tr := newTestTree(8)
	keys := permutedInts(600, 6)
	fill(t, tr, keys)
	for i, k := range keys {
		if i%2 == 0 {
			if !tr.Delete(k) {
				t.Fatalf("delete %v failed", k)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after delete: %v", err)
	}
	if tr.Len() != 300 {
		t.Fatalf("len=%d", tr.Len())
	}
	for i, k := range keys {
		if got := tr.Contains(k); got != (i%2 == 1) {
			t.Fatalf("contains(%v)=%v at i=%d", k, got, i)
		}
	}
}

func TestDeleteAllThenReuse(t *testing.T) {
	tr := newTestTree(8)
	keys := permutedInts(250, 7)
	fill(t, tr, keys)
	for _, k := range keys {
		if !tr.Delete(k) {
			t.Fatalf("delete %v", k)
		}
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("after drain: len=%d h=%d", tr.Len(), tr.Height())
	}
	fill(t, tr, permutedInts(100, 8))
	if tr.Len() != 100 {
		t.Fatalf("reuse len=%d", tr.Len())
	}
}

func TestAscendRange(t *testing.T) {
	tr := newTestTree(8)
	fill(t, tr, permutedInts(100, 12))
	var got []float64
	tr.AscendRange(10, 20, func(k float64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 11 || got[0] != 10 || got[10] != 20 {
		t.Fatalf("ascend got %v", got)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatal("not sorted")
	}
	// Early stop.
	count := 0
	tr.AscendRange(0, 99, func(float64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop count=%d", count)
	}
}

func TestHeightLogarithmic(t *testing.T) {
	tr := newTestTree(64) // leafCap 63, kidCap 21
	fill(t, tr, permutedInts(20000, 13))
	// log_21(20000/63) ≈ 1.9 → height should be small.
	if tr.Height() > 4 {
		t.Fatalf("height %d too large for n=20000, B=64", tr.Height())
	}
}

func TestIOCostLogarithmic(t *testing.T) {
	d := em.NewDisk(em.Config{B: 64, M: 4 * 64}) // tiny pool: 4 frames
	tr := New(d, "t")
	for _, k := range permutedInts(20000, 14) {
		tr.Insert(k)
	}
	d.DropCache()
	base := d.Stats()
	const queries = 100
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < queries; i++ {
		tr.Contains(rng.Float64() * 20000)
		d.DropCache()
	}
	per := float64(d.Stats().Sub(base).Reads) / queries
	if per > float64(tr.Height())+1 {
		t.Fatalf("per-query reads %.1f exceeds height %d", per, tr.Height())
	}
}

func TestSpaceLinear(t *testing.T) {
	d := em.NewDisk(em.Config{B: 64, M: 16 * 64})
	tr := New(d, "t")
	n := 30000
	for _, k := range permutedInts(n, 16) {
		tr.Insert(k)
	}
	live := d.Stats().BlocksLive
	// n keys / (leafCap/2) leaves minimum; allow generous constant.
	bound := int64(6 * n / d.B())
	if live > bound {
		t.Fatalf("space %d blocks exceeds %d (n=%d, B=%d)", live, bound, n, d.B())
	}
}

func TestFreeReleasesBlocks(t *testing.T) {
	d := em.NewDisk(em.Config{B: 16, M: 128})
	tr := New(d, "t")
	for _, k := range permutedInts(500, 17) {
		tr.Insert(k)
	}
	tr.Free()
	if live := d.Stats().BlocksLive; live != 0 {
		t.Fatalf("blocks leaked: %d", live)
	}
}

func TestSmallBlockSizes(t *testing.T) {
	for _, b := range []int{8, 12, 16, 32} {
		tr := newTestTree(b)
		keys := permutedInts(400, int64(b))
		fill(t, tr, keys)
		for i := 0; i < 400; i += 3 {
			if !tr.Delete(float64(i)) {
				t.Fatalf("B=%d delete %d", b, i)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("B=%d: %v", b, err)
		}
	}
}

// Property: tree behaves identically to a sorted-slice model under random
// insert/delete/rank/select interleavings.
func TestQuickModelEquivalence(t *testing.T) {
	f := func(ops []int16) bool {
		tr := newTestTree(8)
		var model []float64
		for _, op := range ops {
			k := float64(int(op) % 200)
			idx := sort.SearchFloat64s(model, k)
			present := idx < len(model) && model[idx] == k
			switch {
			case op%2 == 0 && !present:
				tr.Insert(k)
				model = append(model, 0)
				copy(model[idx+1:], model[idx:])
				model[idx] = k
			case op%2 == 1:
				got := tr.Delete(k)
				if got != present {
					return false
				}
				if present {
					model = append(model[:idx], model[idx+1:]...)
				}
			}
			if tr.Len() != len(model) {
				return false
			}
			if got := tr.CountGE(k); got != len(model)-sort.SearchFloat64s(model, k) {
				return false
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			return false
		}
		got := tr.Keys()
		if len(got) != len(model) {
			return false
		}
		for i := range got {
			if got[i] != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: SelectDesc(RankDesc(k)) == k for all present keys.
func TestQuickRankSelectDuality(t *testing.T) {
	f := func(raw []uint16) bool {
		tr := newTestTree(16)
		seen := map[float64]bool{}
		for _, r := range raw {
			k := float64(r)
			if !seen[k] {
				seen[k] = true
				tr.Insert(k)
			}
		}
		for k := range seen {
			r := tr.RankDesc(k)
			got, ok := tr.SelectDesc(r)
			if !ok || got != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAscendMatchesInfRange(t *testing.T) {
	tr := newTestTree(16)
	fill(t, tr, permutedInts(50, 18))
	var got []float64
	tr.AscendRange(math.Inf(-1), math.Inf(1), func(k float64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 50 {
		t.Fatalf("full ascend len=%d", len(got))
	}
}

func BenchmarkInsert(b *testing.B) {
	d := em.NewDisk(em.Config{B: 64, M: 64 * 64})
	tr := New(d, "t")
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(rng.Float64() + float64(i))
	}
}

func BenchmarkRankDesc(b *testing.B) {
	d := em.NewDisk(em.Config{B: 64, M: 64 * 64})
	tr := New(d, "t")
	for _, k := range permutedInts(50000, 2) {
		tr.Insert(k)
	}
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RankDesc(rng.Float64() * 50000)
	}
}
