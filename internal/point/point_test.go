package point

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
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

// byScoreDescCmp is the comparison sort SortByScoreDesc keeps below
// radixCutoff, the reference the radix kernel must match.
func byScoreDescCmp(ps []P) {
	slices.SortFunc(ps, func(a, b P) int { return cmp.Compare(b.Score, a.Score) })
}

// distinctScores returns n distinct finite scores over every range
// the radix kernel's key must order: both signs across many
// magnitudes, subnormals, ±MaxFloat64, and one zero, -0 when neg0.
func distinctScores(rng *rand.Rand, n int, neg0 bool) []float64 {
	zero := 0.0
	if neg0 {
		zero = math.Copysign(0, -1)
	}
	out := []float64{zero, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	seen := map[float64]bool{} // == folds -0 into +0, as the guard does
	for _, s := range out {
		seen[s] = true
	}
	for len(out) < n {
		var s float64
		switch rng.Intn(4) {
		case 0: // subnormal
			s = math.Float64frombits(rng.Uint64() & (1<<52 - 1))
		case 1: // any magnitude
			s = math.Ldexp(rng.Float64(), rng.Intn(2000)-1000)
		default: // the benchmark's shape: uniform in [0, 1)
			s = rng.Float64()
		}
		if rng.Intn(2) == 0 {
			s = -s
		}
		if !seen[s] && !math.IsInf(s, 0) {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out[:n]
}

// TestSortByScoreDesc checks SortByScoreDesc against the comparison
// sort on both sides of the radix cutoff and well above it, over
// distinct scores of both signs, subnormals, ±MaxFloat64 and one of
// ±0, in random, sorted, reversed and organ-pipe order, through a
// fresh scratch and through a reused one that starts short.
func TestSortByScoreDesc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var buf []P
	for _, n := range []int{radixCutoff - 1, radixCutoff, radixCutoff + 1, 4096, 65536} {
		scores := distinctScores(rng, n, n%2 == 0)
		ps := make([]P, n)
		for i, s := range scores {
			ps[i] = P{X: float64(i), Score: s}
		}
		want := slices.Clone(ps)
		byScoreDescCmp(want)
		// Organ-pipe: the even ranks ascending, then the odd ranks
		// descending.
		var rise, fall []P
		for i, p := range want {
			if i%2 == 0 {
				rise = append(rise, p)
			} else {
				fall = append(fall, p)
			}
		}
		slices.Reverse(rise)
		reversed := slices.Clone(want)
		slices.Reverse(reversed)
		orders := map[string][]P{
			"random":     ps,
			"sorted":     want,
			"reversed":   reversed,
			"organ-pipe": append(rise, fall...),
		}
		for name, in := range orders {
			got := slices.Clone(in)
			SortByScoreDesc(got)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d %s: SortByScoreDesc differs from slices.SortFunc", n, name)
			}
			got = slices.Clone(in)
			buf = SortByScoreDescBuf(got, buf)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d %s: SortByScoreDescBuf differs from slices.SortFunc", n, name)
			}
		}
	}
	if cap(buf) < 65536 {
		t.Fatalf("the returned scratch holds %d points; want it grown to the largest sort", cap(buf))
	}
}

// FuzzSortByScoreDesc runs the radix kernel itself, at every length,
// and SortByScoreDesc against the comparison sort over the input read
// as little-endian float64s; non-finite values and repeats (±0
// folded) are dropped.
func FuzzSortByScoreDesc(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(-1.5)))
	for i, n := range []int{3, 40, radixCutoff + 3} {
		var seed []byte
		for _, s := range distinctScores(rand.New(rand.NewSource(int64(i))), n, i == 1) {
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(s))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ps []P
		seen := map[float64]bool{}
		for ; len(data) >= 8; data = data[8:] {
			s := math.Float64frombits(binary.LittleEndian.Uint64(data))
			if !math.IsNaN(s) && !math.IsInf(s, 0) && !seen[s] {
				seen[s] = true
				ps = append(ps, P{X: float64(len(ps)), Score: s})
			}
		}
		want := slices.Clone(ps)
		byScoreDescCmp(want)
		got := slices.Clone(ps)
		SortByScoreDesc(got)
		if !slices.Equal(got, want) {
			t.Fatalf("SortByScoreDesc(%v) = %v, want %v", ps, got, want)
		}
		if len(ps) > 0 {
			got = slices.Clone(ps)
			radixScoreDesc(got, make([]P, len(got)))
			if !slices.Equal(got, want) {
				t.Fatalf("radixScoreDesc(%v) = %v, want %v", ps, got, want)
			}
		}
	})
}

// BenchmarkSortByScoreDesc times the radix kernel against the
// comparison sort on uniform scores in [0, 1), the benchmark fleet's,
// around the cutoff and at read-wide's answer sizes; radixCutoff is
// where the two cross.
func BenchmarkSortByScoreDesc(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512, 1024, 2600, 4096} {
		rng := rand.New(rand.NewSource(int64(n)))
		ps := make([]P, n)
		for i := range ps {
			ps[i] = P{X: float64(i), Score: rng.Float64()}
		}
		work := make([]P, n)
		tmp := make([]P, n)
		b.Run(fmt.Sprintf("radix/n=%d", n), func(b *testing.B) {
			for range b.N {
				copy(work, ps)
				radixScoreDesc(work, tmp)
			}
		})
		b.Run(fmt.Sprintf("cmp/n=%d", n), func(b *testing.B) {
			for range b.N {
				copy(work, ps)
				byScoreDescCmp(work)
			}
		})
	}
}

// byXCmp is the comparison sort SortByX keeps below radixCutoff, the
// reference the radix path must match.
func byXCmp(ps []P) { slices.SortFunc(ps, compareX) }

// xInput returns n points in the shapes the radix path must order like
// the comparison sort: positions that tie (±0 among them, with
// different scores), negatives, subnormals and ±MaxFloat64, each with
// a distinct score, laid out in random, sorted, reversed or nearly
// sorted order by shape.
func xInput(rng *rand.Rand, n int, shape string) []P {
	scores := distinctScores(rng, n, rng.Intn(2) == 0)
	pos := []float64{0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	ps := make([]P, n)
	for i := range ps {
		var x float64
		switch rng.Intn(5) {
		case 0: // a tie with an earlier position, or an edge value
			if i > 0 && rng.Intn(2) == 0 {
				x = ps[rng.Intn(i)].X
			} else {
				x = pos[rng.Intn(len(pos))]
			}
		case 1: // subnormal
			x = math.Float64frombits(rng.Uint64() & (1<<52 - 1))
		case 2: // any magnitude
			x = math.Ldexp(rng.Float64(), rng.Intn(2000)-1000)
		default: // the benchmark's shape: uniform in [0, 10⁶)
			x = rng.Float64() * 1e6
		}
		if rng.Intn(4) == 0 {
			x = -x
		}
		ps[i] = P{X: x, Score: scores[i]}
	}
	switch shape {
	case "sorted":
		byXCmp(ps)
	case "reversed":
		byXCmp(ps)
		slices.Reverse(ps)
	case "nearly sorted":
		byXCmp(ps)
		for range 1 + n/64 {
			i, j := rng.Intn(n), rng.Intn(n)
			ps[i], ps[j] = ps[j], ps[i]
		}
	}
	return ps
}

// TestSortByX checks SortByX against the comparison sort on both sides
// of the radix cutoff and well above it, through a fresh scratch and a
// reused one that starts short, and that x-sorted input is left as it
// is.
func TestSortByX(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var buf []P
	for _, n := range []int{1, radixCutoff - 1, radixCutoff, radixCutoff + 1, 4096, 65536} {
		for _, shape := range []string{"random", "sorted", "reversed", "nearly sorted"} {
			in := xInput(rng, n, shape)
			want := slices.Clone(in)
			byXCmp(want)
			got := slices.Clone(in)
			SortByX(got)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d %s: SortByX differs from slices.SortFunc", n, shape)
			}
			got = slices.Clone(in)
			buf = SortByXBuf(got, buf)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d %s: SortByXBuf differs from slices.SortFunc", n, shape)
			}
			if IsSortedByX(in) != (shape == "sorted") && n > 1 {
				t.Fatalf("n=%d %s: IsSortedByX = %v", n, shape, IsSortedByX(in))
			}
		}
	}
	if cap(buf) < 65536 {
		t.Fatalf("the returned scratch holds %d points; want it grown to the largest sort", cap(buf))
	}
	sorted := xInput(rng, 4096, "sorted")
	if buf := SortByXBuf(slices.Clone(sorted), nil); buf != nil {
		t.Fatal("SortByXBuf took scratch for x-sorted input")
	}
}

// FuzzSortByX runs the radix path itself, at every length, and SortByX
// against the comparison sort over the input read as pairs of
// little-endian float64s, position then score; non-finite values are
// dropped, and repeated scores (±0 folded) keep their first point, so
// positions tie freely but scores do not.
func FuzzSortByX(f *testing.F) {
	f.Add([]byte{})
	var pair []byte
	pair = binary.LittleEndian.AppendUint64(pair, math.Float64bits(math.Copysign(0, -1)))
	pair = binary.LittleEndian.AppendUint64(pair, math.Float64bits(2))
	pair = binary.LittleEndian.AppendUint64(pair, 0)
	pair = binary.LittleEndian.AppendUint64(pair, math.Float64bits(1))
	f.Add(pair)
	for i, n := range []int{3, 40, radixCutoff + 3} {
		for _, shape := range []string{"random", "reversed", "nearly sorted"} {
			var seed []byte
			for _, p := range xInput(rand.New(rand.NewSource(int64(i))), n, shape) {
				seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(p.X))
				seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(p.Score))
			}
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ps []P
		seen := map[float64]bool{}
		for ; len(data) >= 16; data = data[16:] {
			p := P{
				X:     math.Float64frombits(binary.LittleEndian.Uint64(data)),
				Score: math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
			}
			if p.Finite() && !seen[p.Score] {
				seen[p.Score] = true
				ps = append(ps, p)
			}
		}
		want := slices.Clone(ps)
		byXCmp(want)
		got := slices.Clone(ps)
		SortByX(got)
		if !slices.Equal(got, want) {
			t.Fatalf("SortByX(%v) = %v, want %v", ps, got, want)
		}
		if len(ps) > 0 {
			got = slices.Clone(ps)
			radixByX(got, make([]P, len(got)))
			if !slices.Equal(got, want) {
				t.Fatalf("radixByX(%v) = %v, want %v", ps, got, want)
			}
		}
	})
}

// BenchmarkSortByX times the radix path against the comparison sort on
// uniform positions in [0, 10⁶), the benchmark fleet's, from a PST
// leaf's size to one benchmark member's 21,845 points; radixCutoff is
// where the two cross. sorted/ is SortByX on input already in order,
// as a §3.3 leaf split hands it.
func BenchmarkSortByX(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512, 2048, 21845} {
		rng := rand.New(rand.NewSource(int64(n)))
		ps := make([]P, n)
		for i := range ps {
			ps[i] = P{X: rng.Float64() * 1e6, Score: float64(i)}
		}
		work := make([]P, n)
		tmp := make([]P, n)
		b.Run(fmt.Sprintf("radix/n=%d", n), func(b *testing.B) {
			for range b.N {
				copy(work, ps)
				radixByX(work, tmp)
			}
		})
		b.Run(fmt.Sprintf("cmp/n=%d", n), func(b *testing.B) {
			for range b.N {
				copy(work, ps)
				byXCmp(work)
			}
		})
		byXCmp(work)
		b.Run(fmt.Sprintf("sorted/n=%d", n), func(b *testing.B) {
			for range b.N {
				tmp = SortByXBuf(work, tmp)
			}
		})
	}
}
