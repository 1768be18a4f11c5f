package point

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestIn(t *testing.T) {
	p := P{X: 5}
	for _, c := range []struct {
		x1, x2 float64
		want   bool
	}{
		{4, 6, true}, {5, 5, true}, {5, 6, true}, {4, 5, true},
		{6, 7, false}, {1, 4.999, false}, {6, 4, false},
	} {
		if got := p.In(c.x1, c.x2); got != c.want {
			t.Errorf("In(%v,%v)=%v", c.x1, c.x2, got)
		}
	}
}

func TestSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps := make([]P, 200)
	for i := range ps {
		ps[i] = P{X: rng.Float64(), Score: rng.Float64()}
	}
	SortByX(ps)
	if !slices.IsSortedFunc(ps, func(a, b P) int { return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Score, b.Score)) }) {
		t.Fatal("SortByX")
	}
	SortByScoreDesc(ps)
	for i := 1; i < len(ps); i++ {
		if ps[i-1].Score < ps[i].Score {
			t.Fatal("SortByScoreDesc")
		}
	}
}

func TestTopK(t *testing.T) {
	ps := []P{{1, 10}, {2, 30}, {3, 20}, {4, 40}, {10, 99}}
	got := TopK(ps, 1, 4, 2)
	if len(got) != 2 || got[0] != (P{4, 40}) || got[1] != (P{2, 30}) {
		t.Fatalf("TopK: %v", got)
	}
	if got := TopK(ps, 1, 4, 100); len(got) != 4 {
		t.Fatalf("k beyond size: %v", got)
	}
	if got := TopK(ps, 1, 4, 0); got != nil {
		t.Fatalf("k=0: %v", got)
	}
	if got := TopK(ps, 1, 4, -3); got != nil {
		t.Fatalf("k<0: %v", got)
	}
	if got := TopK(ps, 5, 9, 3); len(got) != 0 {
		t.Fatalf("empty range: %v", got)
	}
}

// Property: TopK output is sorted descending, within range, of size
// min(k, |in range|), and dominates every in-range point it excludes.
func TestQuickTopK(t *testing.T) {
	f := func(raw []uint32, kRaw uint8, loRaw, spanRaw uint16) bool {
		ps := make([]P, len(raw))
		for i, r := range raw {
			ps[i] = P{X: float64(r % 1000), Score: float64(r) + float64(i)/1e6}
		}
		x1 := float64(loRaw % 1000)
		x2 := x1 + float64(spanRaw%1000)
		k := int(kRaw)%20 + 1
		got := TopK(ps, x1, x2, k)
		inRange := 0
		minGot := 0.0
		for i, p := range got {
			if !p.In(x1, x2) {
				return false
			}
			if i > 0 && got[i-1].Score < p.Score {
				return false
			}
			minGot = p.Score
		}
		for _, p := range ps {
			if p.In(x1, x2) {
				inRange++
			}
		}
		want := k
		if inRange < k {
			want = inRange
		}
		if len(got) != want {
			return false
		}
		if len(got) == k {
			// No excluded in-range point may beat the k-th.
			seen := map[P]bool{}
			for _, p := range got {
				seen[p] = true
			}
			for _, p := range ps {
				if p.In(x1, x2) && !seen[p] && p.Score > minGot {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectTop holds SelectTop to a full sort: on random, sorted,
// reversed and organ-pipe scores, with ties and without, for k = 1,
// k = len, the ranks between and k outside [1, len], it returns the
// first min(k, len) scores of the sorted slice, in order, and keeps
// every point of its input.
func TestSelectTop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 301
	inputs := map[string]func(i int) float64{
		"random":     func(int) float64 { return rng.Float64() },
		"sorted":     func(i int) float64 { return float64(i) },
		"reversed":   func(i int) float64 { return float64(n - i) },
		"organ-pipe": func(i int) float64 { return float64(min(i, n-1-i)) },
		"few values": func(int) float64 { return float64(rng.Intn(4)) },
	}
	for name, score := range inputs {
		ps := make([]P, n)
		for i := range ps {
			ps[i] = P{X: float64(i), Score: score(i)}
		}
		sorted := ByScoreDesc(ps)
		for _, k := range []int{-1, 0, 1, 2, 17, n / 2, n - 1, n, n + 5} {
			in := slices.Clone(ps)
			got := SelectTop(in, k)
			want := sorted[:max(0, min(k, n))]
			if len(got) != len(want) {
				t.Fatalf("%s, k=%d: %d points, want %d", name, k, len(got), len(want))
			}
			for i := range got {
				if got[i].Score != want[i].Score {
					t.Fatalf("%s, k=%d: rank %d scores %v, a full sort %v", name, k, i+1, got[i].Score, want[i].Score)
				}
			}
			slices.SortFunc(in, func(a, b P) int { return cmp.Compare(a.X, b.X) })
			if !slices.Equal(in, ps) {
				t.Fatalf("%s, k=%d: the slice lost or changed points", name, k)
			}
		}
	}
}
