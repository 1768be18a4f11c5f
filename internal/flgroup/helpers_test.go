package flgroup

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/em"
)

func buildHelperGroup(t *testing.T) (*Group, *model) {
	t.Helper()
	g := New(em.NewDisk(em.Config{B: 64, M: 32 * 64}), 5, 60)
	m := &model{sets: make([][]float64, 5)}
	fillGroup(g, m, 40, 77)
	return g, m
}

func TestMinMaxOf(t *testing.T) {
	g, m := buildHelperGroup(t)
	for i := 1; i <= 5; i++ {
		set := append([]float64(nil), m.sets[i-1]...)
		sort.Float64s(set)
		mn, ok := g.MinOf(i)
		if !ok || mn != set[0] {
			t.Fatalf("MinOf(%d)=%v,%v want %v", i, mn, ok, set[0])
		}
		mx, ok := g.MaxOf(i)
		if !ok || mx != set[len(set)-1] {
			t.Fatalf("MaxOf(%d)=%v,%v want %v", i, mx, ok, set[len(set)-1])
		}
	}
	empty := New(em.NewDisk(em.Config{B: 64, M: 32 * 64}), 2, 8)
	if _, ok := empty.MinOf(1); ok {
		t.Fatal("MinOf on empty set")
	}
}

func TestContains(t *testing.T) {
	g, m := buildHelperGroup(t)
	for i := 1; i <= 5; i++ {
		for _, v := range m.sets[i-1][:5] {
			if !g.Contains(i, v) {
				t.Fatalf("Contains(%d,%v)=false", i, v)
			}
			other := i%5 + 1
			if g.Contains(other, v) {
				t.Fatalf("Contains(%d,%v)=true for foreign set", other, v)
			}
		}
	}
}

func TestSelectExact(t *testing.T) {
	g, m := buildHelperGroup(t)
	var all []float64
	for _, s := range m.sets {
		all = append(all, s...)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(all)))
	for r := 1; r <= len(all); r += 17 {
		v, ok := g.SelectExact(r)
		if !ok || v != all[r-1] {
			t.Fatalf("SelectExact(%d)=%v,%v want %v", r, v, ok, all[r-1])
		}
	}
	if _, ok := g.SelectExact(len(all) + 1); ok {
		t.Fatal("SelectExact beyond size")
	}
	if _, ok := g.SelectExact(0); ok {
		t.Fatal("SelectExact(0)")
	}
}

func TestTopIn(t *testing.T) {
	g, m := buildHelperGroup(t)
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 50; trial++ {
		a1 := rng.Intn(5) + 1
		a2 := a1 + rng.Intn(5-a1+1)
		mm := rng.Intn(30) + 1
		got := g.AppendTopIn(nil, a1, a2, mm)
		var want []float64
		for i := a1 - 1; i < a2; i++ {
			want = append(want, m.sets[i]...)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		if mm < len(want) {
			want = want[:mm]
		}
		if len(got) != len(want) {
			t.Fatalf("TopIn(%d,%d,%d): %d items want %d", a1, a2, mm, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("TopIn entry %d: %v want %v", i, got[i], want[i])
			}
		}
	}
}

func TestTopInMoreThanAvailable(t *testing.T) {
	g := New(em.NewDisk(em.Config{B: 64, M: 32 * 64}), 2, 8)
	g.Insert(1, 3)
	g.Insert(2, 5)
	got := g.AppendTopIn(nil, 1, 2, 10)
	if len(got) != 2 || got[0] != 5 || got[1] != 3 {
		t.Fatalf("TopIn over-ask: %v", got)
	}
}

func TestFreeReleasesEverything(t *testing.T) {
	d := em.NewDisk(em.Config{B: 64, M: 32 * 64})
	g := New(d, 4, 32)
	rng := rand.New(rand.NewSource(79))
	for i := 1; i <= 4; i++ {
		for j := 0; j < 20; j++ {
			g.Insert(i, rng.Float64())
		}
	}
	g.Free()
	if live := d.Stats().BlocksLive; live != 0 {
		t.Fatalf("leaked %d blocks", live)
	}
}
