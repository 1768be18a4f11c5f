package flgroup

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/em"
)

func newDisk(b int) *em.Disk { return em.NewDisk(em.Config{B: b, M: 32 * b}) }

// model mirrors the group as plain slices for oracle checks.
type model struct {
	sets [][]float64
}

func (m *model) insert(i int, v float64) { m.sets[i-1] = append(m.sets[i-1], v) }

func (m *model) delete(i int, v float64) {
	s := m.sets[i-1]
	for j, x := range s {
		if x == v {
			m.sets[i-1] = append(s[:j], s[j+1:]...)
			return
		}
	}
}

func (m *model) unionRank(a1, a2 int, v float64) int {
	r := 0
	for i := a1 - 1; i < a2; i++ {
		for _, x := range m.sets[i] {
			if x >= v {
				r++
			}
		}
	}
	return r
}

func (m *model) unionLen(a1, a2 int) int {
	n := 0
	for i := a1 - 1; i < a2; i++ {
		n += len(m.sets[i])
	}
	return n
}

func (m *model) unionMax(a1, a2 int) (float64, bool) {
	best, ok := 0.0, false
	for i := a1 - 1; i < a2; i++ {
		for _, x := range m.sets[i] {
			if !ok || x > best {
				best, ok = x, true
			}
		}
	}
	return best, ok
}

func fillGroup(g *Group, m *model, perSet int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[float64]bool{}
	for i := 1; i <= g.F(); i++ {
		for j := 0; j < perSet; j++ {
			v := rng.Float64() * 1e9
			if seen[v] {
				j--
				continue
			}
			seen[v] = true
			g.Insert(i, v)
			m.insert(i, v)
		}
	}
}

func TestEmptyGroup(t *testing.T) {
	g := New(newDisk(64), 4, 32)
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 0 || g.SizeOf(1) != 0 {
		t.Fatal("not empty")
	}
	if _, ok := g.MaxIn(1, 4); ok {
		t.Fatal("max of empty")
	}
	if got := g.CountIn(1, 4); got != 0 {
		t.Fatalf("count %d", got)
	}
}

func TestInsertInvariants(t *testing.T) {
	g := New(newDisk(64), 6, 64)
	m := &model{sets: make([][]float64, 6)}
	rng := rand.New(rand.NewSource(1))
	seen := map[float64]bool{}
	for op := 0; op < 300; op++ {
		i := rng.Intn(6) + 1
		if g.SizeOf(i) >= 64 {
			continue
		}
		v := rng.Float64() * 1e9
		if seen[v] {
			continue
		}
		seen[v] = true
		g.Insert(i, v)
		m.insert(i, v)
		if op%23 == 0 {
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectGuarantee(t *testing.T) {
	g := New(newDisk(64), 8, 128)
	m := &model{sets: make([][]float64, 8)}
	fillGroup(g, m, 100, 2)
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		a1 := rng.Intn(8) + 1
		a2 := a1 + rng.Intn(8-a1+1)
		un := m.unionLen(a1, a2)
		k := rng.Intn(un) + 1
		x := g.Select(a1, a2, k)
		var r int
		if math.IsInf(x, -1) {
			r = un
		} else {
			r = m.unionRank(a1, a2, x)
		}
		if r < k || r > g.Bound()*k {
			t.Fatalf("trial %d: [%d,%d] k=%d rank %d outside [%d,%d]",
				trial, a1, a2, k, r, k, g.Bound()*k)
		}
	}
}

func TestMaxIn(t *testing.T) {
	g := New(newDisk(64), 5, 40)
	m := &model{sets: make([][]float64, 5)}
	fillGroup(g, m, 30, 4)
	for a1 := 1; a1 <= 5; a1++ {
		for a2 := a1; a2 <= 5; a2++ {
			got, ok := g.MaxIn(a1, a2)
			want, wok := m.unionMax(a1, a2)
			if ok != wok || got != want {
				t.Fatalf("MaxIn(%d,%d)=%v,%v want %v,%v", a1, a2, got, ok, want, wok)
			}
		}
	}
}

func TestMaxInOneIO(t *testing.T) {
	d := newDisk(64)
	g := New(d, 8, 64)
	m := &model{sets: make([][]float64, 8)}
	fillGroup(g, m, 50, 5)
	d.DropCache()
	base := d.Stats()
	g.MaxIn(2, 7)
	if got := d.Stats().Sub(base).Reads; got > 4 {
		t.Fatalf("MaxIn cost %d reads, want O(1)", got)
	}
}

func TestDeleteInvariants(t *testing.T) {
	g := New(newDisk(64), 6, 80)
	m := &model{sets: make([][]float64, 6)}
	fillGroup(g, m, 60, 6)
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 250; op++ {
		i := rng.Intn(6) + 1
		if len(m.sets[i-1]) == 0 {
			continue
		}
		v := m.sets[i-1][rng.Intn(len(m.sets[i-1]))]
		if !g.Delete(i, v) {
			t.Fatalf("op %d: delete %v from %d failed", op, v, i)
		}
		m.delete(i, v)
		if op%19 == 0 {
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteNonexistent(t *testing.T) {
	g := New(newDisk(64), 3, 16)
	g.Insert(1, 5)
	if g.Delete(1, 6) {
		t.Fatal("deleted phantom")
	}
	if g.Delete(2, 5) {
		t.Fatal("deleted from wrong set")
	}
	if !g.Delete(1, 5) {
		t.Fatal("delete failed")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainAndRefill(t *testing.T) {
	g := New(newDisk(64), 4, 32)
	m := &model{sets: make([][]float64, 4)}
	fillGroup(g, m, 24, 8)
	for i := 1; i <= 4; i++ {
		for _, v := range append([]float64(nil), m.sets[i-1]...) {
			g.Delete(i, v)
			m.delete(i, v)
		}
	}
	if g.Len() != 0 {
		t.Fatalf("len=%d", g.Len())
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	fillGroup(g, m, 10, 9)
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectAfterChurn(t *testing.T) {
	g := New(newDisk(64), 6, 96)
	m := &model{sets: make([][]float64, 6)}
	fillGroup(g, m, 50, 10)
	rng := rand.New(rand.NewSource(11))
	seen := map[float64]bool{}
	for op := 0; op < 600; op++ {
		i := rng.Intn(6) + 1
		if rng.Intn(2) == 0 && len(m.sets[i-1]) > 5 {
			v := m.sets[i-1][rng.Intn(len(m.sets[i-1]))]
			g.Delete(i, v)
			m.delete(i, v)
		} else if g.SizeOf(i) < 96 {
			v := rng.Float64() * 1e9
			if seen[v] {
				continue
			}
			seen[v] = true
			g.Insert(i, v)
			m.insert(i, v)
		}
		if op%50 == 25 {
			a1 := rng.Intn(6) + 1
			a2 := a1 + rng.Intn(6-a1+1)
			un := m.unionLen(a1, a2)
			if un == 0 {
				continue
			}
			k := rng.Intn(un) + 1
			x := g.Select(a1, a2, k)
			r := un
			if !math.IsInf(x, -1) {
				r = m.unionRank(a1, a2, x)
			}
			if r < k || r > g.Bound()*k {
				t.Fatalf("op %d: rank %d outside [%d,%d]", op, r, k, g.Bound()*k)
			}
		}
	}
}

func TestQueryIOCost(t *testing.T) {
	d := newDisk(64)
	g := New(d, 8, 128)
	m := &model{sets: make([][]float64, 8)}
	fillGroup(g, m, 100, 12)
	d.DropCache()
	base := d.Stats()
	const queries = 20
	for q := 0; q < queries; q++ {
		g.Select(1, 8, q*40+1)
		d.DropCache()
	}
	per := float64(d.Stats().Sub(base).Reads) / queries
	// One sketch-block read (possibly spanning a few blocks) + one
	// B-tree descent of height ~2.
	if per > 15 {
		t.Fatalf("per-query reads %.1f, want O(log_B(fl))", per)
	}
	t.Logf("select cost: %.1f reads", per)
}

func TestCompressedBlocksFitInOneBlock(t *testing.T) {
	// §4.1: f·lg l·2lg(fl) bits fit in a block of B·64 bits; §4.4: the
	// prefix set too. Verify bit-for-bit in the paper's regime
	// f ≤ √B·lg^ε N with l = polylg N. With B = 1024 words and N = 2^20:
	// f = 32 ≤ √1024·lg^ε, l = 400 ≈ lg²N.
	d := em.NewDisk(em.Config{B: 1024, M: 32 * 1024})
	g := New(d, 32, 400)
	rng := rand.New(rand.NewSource(13))
	seen := map[float64]bool{}
	for i := 1; i <= 32; i++ {
		for j := 0; j < 400; j++ {
			v := rng.Float64()
			if seen[v] {
				j--
				continue
			}
			seen[v] = true
			g.Insert(i, v)
		}
	}
	sb, pb := g.SketchBits()
	blockBits := 1024 * 64
	if sb > blockBits {
		t.Fatalf("sketch set %d bits > block %d bits", sb, blockBits)
	}
	if pb > blockBits {
		t.Fatalf("prefix set %d bits > block %d bits", pb, blockBits)
	}
	t.Logf("sketch=%d bits, prefix=%d bits, block=%d bits", sb, pb, blockBits)
}

func TestPrefLenFormula(t *testing.T) {
	d := em.NewDisk(em.Config{B: 256, M: 8 * 256})
	g := New(d, 16, 200)
	want := int(math.Sqrt(256) * (math.Log(16*200) / math.Log(256)))
	if g.PrefLen() != want {
		t.Fatalf("prefLen=%d want %d", g.PrefLen(), want)
	}
}

func TestBase4(t *testing.T) {
	g := NewBase(newDisk(64), 4, 64, 4)
	m := &model{sets: make([][]float64, 4)}
	fillGroup(g, m, 50, 14)
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 5, 20, 100} {
		x := g.Select(1, 4, k)
		r := m.unionLen(1, 4)
		if !math.IsInf(x, -1) {
			r = m.unionRank(1, 4, x)
		}
		if r < k || r > g.Bound()*k {
			t.Fatalf("k=%d rank %d bound %d", k, r, g.Bound())
		}
	}
}

func TestPanicOnOverfill(t *testing.T) {
	g := New(newDisk(64), 2, 3)
	g.Insert(1, 1)
	g.Insert(1, 2)
	g.Insert(1, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("overfill accepted")
		}
	}()
	g.Insert(1, 4)
}

func TestPanicOnDuplicate(t *testing.T) {
	g := New(newDisk(64), 2, 8)
	g.Insert(1, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate accepted")
		}
	}()
	g.Insert(2, 7)
}

// Property: invariants and the select guarantee survive arbitrary
// interleavings.
func TestQuickGroupModel(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		if len(ops) > 120 {
			ops = ops[:120]
		}
		g := New(newDisk(64), 4, 48)
		m := &model{sets: make([][]float64, 4)}
		return runOps(g, m, ops, seed, map[float64]bool{})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// runOps applies an op stream to g and its model m — each op deletes an
// existing value or inserts a fresh one (seen holds every value used) —
// then checks the invariants and one Select over all sets.
func runOps(g *Group, m *model, ops []uint16, seed int64, seen map[float64]bool) bool {
	rng := rand.New(rand.NewSource(seed))
	f := g.F()
	for _, op := range ops {
		i := int(op)%f + 1
		if op%3 == 0 && len(m.sets[i-1]) > 0 {
			v := m.sets[i-1][int(op/3)%len(m.sets[i-1])]
			if !g.Delete(i, v) {
				return false
			}
			m.delete(i, v)
		} else if g.SizeOf(i) < g.L() {
			v := rng.Float64() * 1e9
			if seen[v] {
				continue
			}
			seen[v] = true
			g.Insert(i, v)
			m.insert(i, v)
		}
	}
	if g.CheckInvariants() != nil {
		return false
	}
	un := m.unionLen(1, f)
	if un == 0 {
		return true
	}
	k := int(uint64(seed)%uint64(un)) + 1
	x := g.Select(1, f, k)
	r := un
	if !math.IsInf(x, -1) {
		r = m.unionRank(1, f, x)
	}
	return r >= k && r <= g.Bound()*k
}

func TestSortStability(t *testing.T) {
	// Guard against accidental reliance on map iteration order anywhere:
	// two identically-built groups answer identically.
	build := func() *Group {
		g := New(newDisk(64), 4, 32)
		rng := rand.New(rand.NewSource(99))
		for i := 1; i <= 4; i++ {
			for j := 0; j < 20; j++ {
				g.Insert(i, rng.Float64())
			}
		}
		return g
	}
	a, b := build(), build()
	for k := 1; k <= 60; k += 7 {
		if a.Select(1, 4, k) != b.Select(1, 4, k) {
			t.Fatalf("nondeterministic select at k=%d", k)
		}
	}
	_ = sort.Float64s
}

func BenchmarkGroupInsertDelete(b *testing.B) {
	d := em.NewDisk(em.Config{B: 64, M: 64 * 64})
	g := New(d, 8, 256)
	rng := rand.New(rand.NewSource(1))
	var vals [][]float64
	vals = make([][]float64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		si := i%8 + 1
		if len(vals[si-1]) >= 250 {
			v := vals[si-1][0]
			vals[si-1] = vals[si-1][1:]
			g.Delete(si, v)
		}
		v := rng.Float64() + float64(i)
		vals[si-1] = append(vals[si-1], v)
		g.Insert(si, v)
	}
}

func BenchmarkGroupSelect(b *testing.B) {
	d := em.NewDisk(em.Config{B: 64, M: 64 * 64})
	g := New(d, 8, 256)
	rng := rand.New(rand.NewSource(2))
	for i := 1; i <= 8; i++ {
		for j := 0; j < 200; j++ {
			g.Insert(i, rng.Float64())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Select(1, 8, i%1000+1)
	}
}

// TestWarmUpdateAllocatesNothing pins the update scratch: once the
// B-trees have room, an insert and the delete that undoes it decode
// both compressed blocks and re-encode them into their own storage
// without allocating.
func TestWarmUpdateAllocatesNothing(t *testing.T) {
	g := New(newDisk(64), 8, 200)
	fillGroup(g, &model{sets: make([][]float64, 8)}, 100, 5)
	for _, v := range []float64{-1, 5e8, 2e9} { // bottom, middle, top of G
		if allocs := testing.AllocsPerRun(20, func() {
			g.Insert(3, v)
			g.Delete(3, v)
		}); allocs != 0 {
			t.Errorf("insert+delete of %v allocates %.1f/op", v, allocs)
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
