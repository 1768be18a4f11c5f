package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/point"
	"repro/internal/workload"
)

// TestGuard: Reserve checks in the fixed order and a rejected point
// claims nothing, Release frees a point for reuse, Load names the first
// offender by index, and Check tells the live set from anything else.
func TestGuard(t *testing.T) {
	var g Guard
	live := point.P{X: 1, Score: 10}
	if err := g.Reserve(live); err != nil {
		t.Fatalf("first Reserve on the zero Guard: %v", err)
	}
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		p    point.P
		want error
	}{
		{point.P{X: math.NaN(), Score: 10}, ErrInvalidPoint},
		{point.P{X: 1, Score: math.Inf(1)}, ErrInvalidPoint},
		{point.P{X: 1, Score: 10}, ErrDuplicatePosition},
		{point.P{X: 1, Score: 20}, ErrDuplicatePosition},
		{point.P{X: 2, Score: 10}, ErrDuplicateScore},
	} {
		if err := g.Reserve(c.p); !errors.Is(err, c.want) {
			t.Fatalf("Reserve(%v) = %v, want %v", c.p, err, c.want)
		}
	}
	// The rejected (2, 10) left position 2 free and (1, 20) score 20.
	if err := g.Check([]point.P{live}); err != nil {
		t.Fatalf("after rejections: %v", err)
	}
	if err := g.Reserve(point.P{X: 2, Score: 20}); err != nil {
		t.Fatal(err)
	}
	if err := g.Reserve(point.P{X: negZero, Score: 0}); err != nil {
		t.Fatal(err)
	}
	if err := g.Reserve(point.P{X: 0, Score: 30}); !errors.Is(err, ErrDuplicatePosition) {
		t.Fatalf("+0 against a live -0: %v", err)
	}
	g.Release(live)
	if err := g.Reserve(point.P{X: 3, Score: live.Score}); err != nil {
		t.Fatalf("reusing a released score: %v", err)
	}
	want := []point.P{{X: 2, Score: 20}, {X: negZero, Score: 0}, {X: 3, Score: 10}}
	if err := g.Check(want); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]point.P{
		want[:2],
		append(want[:2:2], point.P{X: 4, Score: 10}),
		append(want[:2:2], point.P{X: 3, Score: 11}),
		append(want[:3:3], point.P{X: 3, Score: 11}),
	} {
		if g.Check(bad) == nil {
			t.Fatalf("Check(%v) passed; the guard holds %v", bad, want)
		}
	}

	for _, c := range []struct {
		pts  []point.P
		want error
		name string
	}{
		{[]point.P{{X: 1, Score: 1}, {X: 2, Score: 2}}, nil, ""},
		{[]point.P{{X: 1, Score: 1}, {X: 2, Score: math.NaN()}, {X: 1, Score: 3}}, ErrInvalidPoint, "load point 1 (2, NaN)"},
		{[]point.P{{X: 1, Score: 1}, {X: 2, Score: 1}, {X: 1, Score: 3}}, ErrDuplicateScore, "load point 1 (score=1)"},
		{[]point.P{{X: 1, Score: 1}, {X: 2, Score: 2}, {X: 1, Score: 2}}, ErrDuplicatePosition, "load point 2 (x=1)"},
	} {
		var g Guard
		err := g.Load(c.pts)
		if !errors.Is(err, c.want) || (err != nil && !strings.HasPrefix(err.Error(), c.name+":")) {
			t.Errorf("Load(%v) = %v, want %v naming %q", c.pts, err, c.want, c.name)
		}
	}
}

// guardKeys is FuzzGuard's key alphabet: ±0 and the extreme
// subnormals, ±MaxFloat64, the non-finite values Reserve rejects
// before it reaches a table, small integers, and normal numbers whose
// bits share their low 32 bits.
var guardKeys = func() []float64 {
	sub := math.Float64frombits(1<<52 - 1) // the largest subnormal
	keys := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, sub, -sub,
		math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for i := 1; i <= 12; i++ {
		keys = append(keys, float64(i), float64(-i))
	}
	for hi := uint64(1); hi <= 12; hi++ {
		keys = append(keys, math.Float64frombits(0x4000_0000_0000_0000|hi<<32|0x9e37_79b9))
	}
	return keys
}()

// has reports whether s holds x.
func (s *FloatSet) has(x float64) bool {
	k := keyOf(x)
	if k == 0 {
		return s.zero
	}
	if s.n == 0 {
		return false
	}
	_, ok := s.find(k)
	return ok
}

// guardModel is the live set FuzzGuard holds a Guard to: the points in
// claim order, and their positions and scores in two Go maps keyed by
// float64, which treat −0 and +0 as one key.
type guardModel struct {
	live              []point.P
	positions, scores map[float64]bool
}

// load empties m and claims pts in order as Guard.Load does, returning
// the index and sentinel of the first point it rejects (-1 and nil if
// none).
func (m *guardModel) load(pts []point.P) (int, error) {
	*m = guardModel{positions: map[float64]bool{}, scores: map[float64]bool{}}
	for i, p := range pts {
		if err := m.reserve(p); err != nil {
			return i, err
		}
	}
	return -1, nil
}

// reserve is Guard.Reserve over the maps.
func (m *guardModel) reserve(p point.P) error {
	switch {
	case !p.Finite():
		return ErrInvalidPoint
	case m.positions[p.X]:
		return ErrDuplicatePosition
	case m.scores[p.Score]:
		return ErrDuplicateScore
	}
	m.positions[p.X], m.scores[p.Score] = true, true
	m.live = append(m.live, p)
	return nil
}

// release drops the live point at index i and returns it.
func (m *guardModel) release(i int) point.P {
	p := m.live[i]
	m.live = slices.Delete(m.live, i, i+1)
	delete(m.positions, p.X)
	delete(m.scores, p.Score)
	return p
}

// FuzzGuard drives a Guard and guardModel with one decoded op stream
// over guardKeys. Each op is a kind byte mod 4 and its operands:
//
//   - 0 x s: Reserve(x, s);
//   - 1 i: Release of the live point at index i mod the live count;
//   - 2 x s: Release(x, s) of a point whose position and score are both
//     absent, which must change nothing;
//   - 3 n then n (x, s) byte pairs: Load of n mod 33 points.
//
// Every op's error must match the model's, a Load's naming the same
// point. After every op each of the model's positions and scores must
// be found in the tables, and Check must pass on the model's live set.
func FuzzGuard(f *testing.F) {
	at := func(x float64) byte {
		for i, k := range guardKeys {
			if math.Float64bits(k) == math.Float64bits(x) {
				return byte(i)
			}
		}
		panic(fmt.Sprintf("%v is not a guard key", x))
	}
	reserve := func(x, s float64) []byte { return []byte{0, at(x), at(s)} }
	negZero := math.Copysign(0, -1)
	// distinct holds every finite key but −0, so that pair(0), …,
	// pair(n-1) have n distinct positions and n distinct scores for n up
	// to 43.
	var distinct []float64
	for _, k := range guardKeys {
		if !math.IsInf(k, 0) && !math.IsNaN(k) && !(k == 0 && math.Signbit(k)) {
			distinct = append(distinct, k)
		}
	}
	pair := func(i int) [2]float64 {
		return [2]float64{distinct[i], distinct[(5*i+3)%len(distinct)]}
	}
	load := func(n int) []byte {
		out := []byte{3, byte(n)}
		for i := range n {
			p := pair(i)
			out = append(out, at(p[0]), at(p[1]))
		}
		return out
	}
	drain := func(n int) (out []byte) {
		for i := range n {
			out = append(out, 1, byte(i*7))
		}
		return out
	}
	var grow []byte
	for i := range 30 {
		p := pair(i)
		grow = append(grow, reserve(p[0], p[1])...)
	}
	f.Add([]byte{})
	f.Add(slices.Concat(
		reserve(0, 1), reserve(negZero, 2), reserve(3, negZero), reserve(3, 0),
		reserve(negZero, 4), []byte{1, 0}, reserve(negZero, 0), reserve(0, 5),
		[]byte{2, at(0), at(6)}, []byte{2, at(7), at(negZero)}))
	f.Add(slices.Concat(
		reserve(math.NaN(), 1), reserve(1, math.Inf(1)), reserve(math.Inf(-1), 2),
		reserve(math.MaxFloat64, -math.MaxFloat64), reserve(math.SmallestNonzeroFloat64, math.MaxFloat64),
		[]byte{3, 3, at(1), at(1), at(2), at(2), at(math.NaN()), at(3)}, reserve(2, 3)))
	f.Add(slices.Concat(load(24), []byte{1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0}, drain(16)))
	f.Add(slices.Concat(grow, drain(15), grow, drain(30)))
	f.Add(slices.Concat(load(30), reserve(1, 0), reserve(12, 1),
		[]byte{3, 4, at(1), at(2), at(3), at(2), at(1), at(4), at(5), at(6)}, grow[:30], drain(10)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Guard
		var m guardModel
		m.load(nil)
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		key := func() float64 { return guardKeys[int(next())%len(guardKeys)] }
		for step := 0; len(data) > 0; step++ {
			var op string
			switch next() % 4 {
			case 0:
				p := point.P{X: key(), Score: key()}
				op = fmt.Sprintf("Reserve(%v)", p)
				if got, want := g.Reserve(p), m.reserve(p); !errors.Is(got, want) {
					t.Fatalf("op %d: %s = %v, want %v", step, op, got, want)
				}
			case 1:
				i := int(next())
				if len(m.live) == 0 {
					continue
				}
				p := m.release(i % len(m.live))
				op = fmt.Sprintf("Release(%v)", p)
				g.Release(p)
			case 2:
				p := point.P{X: key(), Score: key()}
				if m.positions[p.X] || m.scores[p.Score] {
					continue
				}
				op = fmt.Sprintf("Release(%v) of an absent point", p)
				g.Release(p)
			case 3:
				pts := make([]point.P, int(next())%33)
				for i := range pts {
					pts[i] = point.P{X: key(), Score: key()}
				}
				op = fmt.Sprintf("Load(%v)", pts)
				err := g.Load(pts)
				i, want := m.load(pts)
				if !errors.Is(err, want) || (err != nil && !strings.HasPrefix(err.Error(), fmt.Sprintf("load point %d ", i))) {
					t.Fatalf("op %d: %s = %v, want %v at point %d", step, op, err, want, i)
				}
			}
			for x := range m.positions {
				if !g.positions.has(x) {
					t.Fatalf("after op %d, %s: position %v not found", step, op, x)
				}
			}
			for s := range m.scores {
				if !g.scores.has(s) {
					t.Fatalf("after op %d, %s: score %v not found", step, op, s)
				}
			}
			if err := g.Check(m.live); err != nil {
				t.Fatalf("after op %d, %s: %v", step, op, err)
			}
		}
	})
}

// TestGuardFootprint pins what the guard costs at the benchmark
// members' sizes (32,768 and 65,536 points over three members): Load
// allocates its two tables and nothing else, together at most 25 bytes
// a point (two Go maps took about 54), and a Reserve+Release pair on
// the loaded guard allocates nothing.
func TestGuardFootprint(t *testing.T) {
	for _, n := range []int{10_922, 21_845} {
		pts := workload.NewGen(int64(n)).Uniform(n, 1e6)
		var g Guard
		objects, bytes := allocated(func() {
			if err := g.Load(pts); err != nil {
				t.Fatal(err)
			}
		})
		perPoint := float64(bytes) / float64(n)
		t.Logf("n=%d: Load allocated %d objects, %.1f bytes a point", n, objects, perPoint)
		if objects != 2 || perPoint > 25 {
			t.Errorf("n=%d: Load allocated %d objects, %.1f bytes a point; want 2 tables, at most 25 bytes a point",
				n, objects, perPoint)
		}
		p := point.P{X: -1, Score: -1} // Uniform draws both coordinates from [0, ∞)
		if allocs := testing.AllocsPerRun(200, func() {
			if err := g.Reserve(p); err != nil {
				t.Fatal(err)
			}
			g.Release(p)
		}); allocs != 0 {
			t.Errorf("n=%d: a Reserve+Release pair allocates %.1f objects", n, allocs)
		}
		if err := g.Check(pts); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// allocated runs f once on one P and returns the heap objects and bytes
// it allocated, counted as testing.AllocsPerRun counts them.
func allocated(f func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}
