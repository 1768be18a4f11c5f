package sketch

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func descSet(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	seen := map[float64]bool{}
	var out []float64
	for len(out) < n {
		v := rng.Float64() * 1e6
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

func TestNumPivots(t *testing.T) {
	cases := []struct{ l, base, want int }{
		{0, 2, 0}, {1, 2, 1}, {2, 2, 2}, {3, 2, 2}, {4, 2, 3},
		{7, 2, 3}, {8, 2, 4}, {1000, 2, 10},
		{1, 4, 1}, {4, 4, 2}, {15, 4, 2}, {16, 4, 3},
	}
	for _, c := range cases {
		if got := NumPivots(c.l, c.base); got != c.want {
			t.Errorf("NumPivots(%d,%d)=%d want %d", c.l, c.base, got, c.want)
		}
	}
}

func TestWindowLo(t *testing.T) {
	for j, want := range []int{1, 2, 4, 8, 16} {
		if got := WindowLo(j+1, 2); got != want {
			t.Errorf("WindowLo(%d,2)=%d want %d", j+1, got, want)
		}
	}
	if got := WindowLo(3, 4); got != 16 {
		t.Errorf("WindowLo(3,4)=%d", got)
	}
}

func TestBuildValidate(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 100, 1023, 1024} {
		set := descSet(n, int64(n))
		for _, base := range []int{2, 3, 4} {
			s := Build(set, base)
			if err := Validate(s, set); err != nil {
				t.Fatalf("n=%d base=%d: %v", n, base, err)
			}
		}
	}
}

func TestValidateRejectsBadPivot(t *testing.T) {
	set := descSet(64, 1)
	s := Build(set, 2)
	s.Pivots[3] = set[0] // rank 1, outside window [8,16)
	if Validate(s, set) == nil {
		t.Fatal("accepted pivot outside window")
	}
	s = Build(set, 2)
	s.Pivots[0] = -1 // not in set
	if Validate(s, set) == nil {
		t.Fatal("accepted foreign pivot")
	}
	s = Build(set, 2)
	s.Pivots = s.Pivots[:len(s.Pivots)-1]
	if Validate(s, set) == nil {
		t.Fatal("accepted short sketch")
	}
}

// unionRank computes the true rank of x in the union of sets.
func unionRank(sets [][]float64, x float64) int {
	r := 0
	for _, set := range sets {
		for _, v := range set {
			if v >= x {
				r++
			}
		}
	}
	return r
}

func TestMergeGuarantee(t *testing.T) {
	for _, base := range []int{2, 4} {
		c3 := MergeBound(base)
		for trial := 0; trial < 30; trial++ {
			rng := rand.New(rand.NewSource(int64(base*1000 + trial)))
			m := rng.Intn(8) + 1
			var sets [][]float64
			var sketches []Sketch
			total := 0
			for i := 0; i < m; i++ {
				n := rng.Intn(300) + 1
				set := descSet(n, int64(trial*100+i))
				sets = append(sets, set)
				sketches = append(sketches, Build(set, base))
				total += n
			}
			for _, k := range []int{1, 2, 3, 5, 10, total / 2, total} {
				if k < 1 || k > total {
					continue
				}
				x := Merge(sketches, k)
				var r int
				if math.IsInf(x, -1) {
					r = total
				} else {
					r = unionRank(sets, x)
				}
				if r < k || r > c3*k {
					t.Fatalf("base=%d trial=%d k=%d: rank %d outside [%d,%d]",
						base, trial, k, r, k, c3*k)
				}
			}
		}
	}
}

func TestMergeSingleSketch(t *testing.T) {
	set := descSet(128, 3)
	s := Build(set, 2)
	for k := 1; k <= 128; k *= 2 {
		x := Merge([]Sketch{s}, k)
		var r int
		if math.IsInf(x, -1) {
			r = 128
		} else {
			r = unionRank([][]float64{set}, x)
		}
		if r < k || r > 8*k {
			t.Fatalf("k=%d rank=%d", k, r)
		}
	}
}

func TestMergeKOnePicksNearMax(t *testing.T) {
	set := descSet(100, 4)
	x := Merge([]Sketch{Build(set, 2)}, 1)
	if r := unionRank([][]float64{set}, x); r < 1 || r > 8 {
		t.Fatalf("k=1 rank=%d", r)
	}
}

func TestMergePanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for k=0")
		}
	}()
	Merge(nil, 0)
}

// Property: Merge never violates its rank guarantee on random inputs.
func TestQuickMergeGuarantee(t *testing.T) {
	f := func(sizes []uint8, kRaw uint16, seed int64) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 12 {
			sizes = sizes[:12]
		}
		var sets [][]float64
		var sketches []Sketch
		total := 0
		for i, szRaw := range sizes {
			n := int(szRaw%200) + 1
			set := descSet(n, seed+int64(i))
			sets = append(sets, set)
			sketches = append(sketches, Build(set, 2))
			total += n
		}
		k := int(kRaw)%total + 1
		x := Merge(sketches, k)
		r := total
		if !math.IsInf(x, -1) {
			r = unionRank(sets, x)
		}
		return r >= k && r <= 8*k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	set := descSet(1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(set, 2)
	}
}

func BenchmarkMerge16(b *testing.B) {
	var sketches []Sketch
	for i := 0; i < 16; i++ {
		sketches = append(sketches, Build(descSet(512, int64(i)), 2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Merge(sketches, 100)
	}
}
