package flgroup

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestBulk builds groups over empty, full and random-size sets and
// checks the compressed blocks, the union Bulk returns, the exact
// MaxIn and CountIn, and the Select guarantee on every set range. The
// same op stream as TestQuickGroupModel then runs on each bulk-built
// group.
func TestBulk(t *testing.T) {
	for _, f := range []int{1, 2, 7} {
		for _, l := range []int{1, 8, 200} {
			for _, fillKind := range []string{"empty", "full", "random"} {
				name := fmt.Sprintf("f=%d/l=%d/%s", f, l, fillKind)
				rng := rand.New(rand.NewSource(int64(100*f + l)))
				seen := map[float64]bool{}
				m := &model{sets: make([][]float64, f)}
				sets := make([][]float64, f)
				for i := range sets {
					n := 0
					switch fillKind {
					case "full":
						n = l
					case "random":
						n = rng.Intn(l + 1)
					}
					for len(sets[i]) < n {
						v := rng.Float64() * 1e9
						if !seen[v] {
							seen[v] = true
							sets[i] = append(sets[i], v)
						}
					}
					m.sets[i] = slices.Clone(sets[i])
					slices.Sort(sets[i])
				}
				g, union := Bulk(newDisk(64), f, l, sets)
				if err := g.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if want := slices.Sorted(slices.Values(slices.Concat(sets...))); !slices.Equal(union, want) {
					t.Fatalf("%s: Bulk's union %v, want %v", name, union, want)
				}
				checkRanges(t, name, g, m)
				ops := make([]uint16, 120)
				for i := range ops {
					ops[i] = uint16(rng.Intn(1 << 16))
				}
				if !runOps(g, m, ops, int64(f*l), seen) {
					t.Fatalf("%s: op stream on the bulk-built group failed", name)
				}
				checkRanges(t, name+" after ops", g, m)
			}
		}
	}
}

// checkRanges compares MaxIn and CountIn with the model on every set
// range [a1, a2], and checks that Select's rank falls in
// [k, Bound()·k] there for a spread of k.
func checkRanges(t *testing.T, name string, g *Group, m *model) {
	t.Helper()
	for a1 := 1; a1 <= g.F(); a1++ {
		for a2 := a1; a2 <= g.F(); a2++ {
			gotMax, gotOK := g.MaxIn(a1, a2)
			wantMax, wantOK := m.unionMax(a1, a2)
			if gotOK != wantOK || gotMax != wantMax {
				t.Fatalf("%s: MaxIn(%d,%d)=%v,%v want %v,%v", name, a1, a2, gotMax, gotOK, wantMax, wantOK)
			}
			un := m.unionLen(a1, a2)
			if got := g.CountIn(a1, a2); got != un {
				t.Fatalf("%s: CountIn(%d,%d)=%d want %d", name, a1, a2, got, un)
			}
			for _, k := range []int{1, 2, 3, un / 8, un / 2, un - 1, un} {
				if k < 1 || k > un {
					continue
				}
				x := g.Select(a1, a2, k)
				r := un
				if !math.IsInf(x, -1) {
					r = m.unionRank(a1, a2, x)
				}
				if r < k || r > g.Bound()*k {
					t.Fatalf("%s: Select(%d,%d,%d) has rank %d, want [%d,%d]", name, a1, a2, k, r, k, g.Bound()*k)
				}
			}
		}
	}
}

func TestBulkRejectsBadSets(t *testing.T) {
	for name, sets := range map[string][][]float64{
		"wrong count": {{1}},
		"over l":      {{1, 2, 3}, {}},
		"shared":      {{1, 2}, {2}},
		"unsorted":    {{2, 1}, {}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: accepted", name)
				}
			}()
			Bulk(newDisk(64), 2, 2, sets)
		}()
	}
}
